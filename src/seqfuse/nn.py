"""From-scratch neural core: projection, LSTM cell, regression head.

Float64 throughout. The network is, per timestep j:

    embed_j = relu(Wp @ z_j + bp)            (optionally dropped out)
    gates   = Wx @ embed_j + Wh @ h_{j-1} + b
    i, f, g, o = sigmoid/tanh blocks of the gate vector (order: i, f, g, o)
    c_j = f * c_{j-1} + i * g
    h_j = o * tanh(c_j)
    act_j = relu(Wm @ h_j + bm)              (optionally dropped out)
    yhat_j = Wo @ act_j + bo                 (raw real, no squashing)

Initial state h_0 = c_0 = 0. Dropout uses inverted scaling (kept activations
divided by ``1 - rate``) and is applied only at the two marked sites, never
inside the recurrence. ``backward`` computes exact reverse-mode gradients of
the mean-squared per-step loss via backpropagation through time.

Only the recurrence runs step by step: in ``forward`` the ``Wh @ h_{j-1}``
product, the gate activations and the c/h update; in ``backward`` the
reverse pass for dh, dc and one gate-gradient row. The projection, the
input-to-gate product ``Wx @ embed_j + b``, the head, both dropout sites and
every weight gradient are single matrix expressions over all t steps.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimMismatchError, TraceMismatchError
from .util import seeded_rng


class ParamSpec(NamedTuple):
    """Where one parameter tensor lives in the flat parameter vector."""

    name: str
    shape: tuple[int, ...]
    fan_in: int  # init samples lie in [-1/sqrt(fan_in), 1/sqrt(fan_in)]
    start: int  # element offset into the flat vector
    size: int


def param_layout(dims: dict[str, int]) -> tuple[ParamSpec, ...]:
    """The parameter table for dims D (input), e (embed), h (hidden), m (head).

    This is the one description of the parameter format: the flat vector and
    its named views, the init draw order and the checkpoint payload all
    follow it. LSTM gate blocks are stacked in (i, f, g, o) row order.
    """
    D, e, h, m = (operator.index(dims[k]) for k in "Dehm")
    for key, value in zip("Dehm", (D, e, h, m)):
        if value < 1:
            raise DimMismatchError(f"dim {key} must be >= 1, got {value}")
    table = (
        ("projection_w", (e, D), D),
        ("projection_b", (e,), D),
        ("lstm_input_w", (4 * h, e), e),
        ("lstm_recurrent_w", (4 * h, h), h),
        ("lstm_b", (4 * h,), h),
        ("head_hidden_w", (m, h), h),
        ("head_hidden_b", (m,), h),
        ("head_out_w", (1, m), m),
        ("head_out_b", (1,), m),
    )
    layout, start = [], 0
    for name, shape, fan_in in table:
        size = math.prod(shape)
        layout.append(ParamSpec(name, shape, fan_in, start, size))
        start += size
    return tuple(layout)


PARAM_ORDER = tuple(spec.name for spec in param_layout(dict.fromkeys("Dehm", 1)))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows: 1/(1+exp(-x)) for x >= 0, exp(x)/(1+exp(x)) below.
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))


@dataclass(eq=False)
class Model:
    """Projection -> LSTM -> two-layer regression head.

    Every parameter lives in one contiguous float64 vector ``params`` laid out
    by :func:`param_layout`; ``tensors`` maps each name in PARAM_ORDER to a
    reshaped view of it, so a write through either is seen by both. Without
    ``params`` the model is all zeros.
    """

    dims: dict[str, int]
    params: np.ndarray | None = None

    def __post_init__(self):
        self.layout = param_layout(self.dims)
        self.dims = {k: int(self.dims[k]) for k in "Dehm"}
        size = self.layout[-1].start + self.layout[-1].size
        if self.params is None:
            self.params = np.zeros(size)
        self.params = np.ascontiguousarray(self.params, dtype=np.float64)
        if self.params.shape != (size,):
            raise DimMismatchError(
                f"parameter vector has shape {self.params.shape}, dims need ({size},)"
            )
        self.tensors = self.views(self.params)

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Named reshaped views of a vector in this model's layout."""
        return {
            s.name: flat[s.start : s.start + s.size].reshape(s.shape)
            for s in self.layout
        }


@dataclass(eq=False)
class ForwardTrace:
    """Every intermediate, one row per step, needed to rerun the backward pass."""

    inputs: np.ndarray  # (t, D) fused features
    proj_pre: np.ndarray  # (t, e) projection pre-activation
    embed: np.ndarray  # (t, e) after relu and embedding dropout
    gates: np.ndarray  # (t, 4h) activated gates, blocks in (i, f, g, o) order
    cell: np.ndarray  # (t, h) c_j
    hidden: np.ndarray  # (t, h) h_j
    head_pre: np.ndarray  # (t, m) head hidden pre-activation
    head_act: np.ndarray  # (t, m) after relu and head dropout
    predictions: np.ndarray  # (t,)
    mask_embed: np.ndarray | None  # (t, e) keep mask, None when dropout is off
    mask_head: np.ndarray | None  # (t, m)
    dropout_rate: float

    @property
    def n_steps(self) -> int:
        return self.predictions.shape[0]


def init_model(seed: int, dims: dict[str, int]) -> Model:
    """Seeded uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)] per tensor.

    ``dims`` holds D (input), e (embedding), h (hidden), m (head). One
    generator draws every tensor in PARAM_ORDER. The forget-gate bias block
    is set to 1.0 after the draw; everything else keeps its uniform sample.
    Same seed, same dims -> identical model.
    """
    model = Model(dims)
    rng = seeded_rng(seed)
    for spec in model.layout:
        bound = 1.0 / np.sqrt(spec.fan_in)
        model.tensors[spec.name][...] = rng.uniform(-bound, bound, size=spec.shape)
    h = model.dims["h"]
    model.tensors["lstm_b"][h : 2 * h] = 1.0
    return model


def forward(
    model: Model,
    inputs: np.ndarray,
    dropout_rate: float = 0.0,
    mask_seed: int | None = None,
) -> ForwardTrace:
    """Run the full network over a (t, D) input matrix, recording the trace.

    Dropout is active only when ``mask_seed`` is given and the rate is
    positive; evaluation mode never touches a random generator. Masks are
    drawn once per call from the seeded generator (embedding mask first,
    then head mask) so a given (model, inputs, mask_seed) is deterministic.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    D, e, h, m = (model.dims[k] for k in "Dehm")
    if inputs.ndim != 2 or inputs.shape[1] != D:
        raise DimMismatchError(
            f"inputs have shape {inputs.shape}, model expects (t, {D})"
        )
    if not 0.0 <= dropout_rate < 1.0:
        raise DimMismatchError("dropout_rate must lie in [0, 1)")
    t = inputs.shape[0]

    mask_embed = mask_head = None
    if mask_seed is not None and dropout_rate > 0.0:
        rng = seeded_rng(mask_seed)
        mask_embed = rng.random((t, e)) >= dropout_rate
        mask_head = rng.random((t, m)) >= dropout_rate
    keep_scale = 1.0 / (1.0 - dropout_rate) if mask_embed is not None else 1.0

    p = model.tensors
    proj_pre = inputs @ p["projection_w"].T + p["projection_b"]
    embed = np.maximum(0.0, proj_pre)
    if mask_embed is not None:
        embed = embed * mask_embed * keep_scale

    # Rows hold the input-to-gate product until step j overwrites row j
    # with its activated gates.
    gates = embed @ p["lstm_input_w"].T + p["lstm_b"]
    Wh = p["lstm_recurrent_w"]
    cell = np.empty((t, h))
    hidden = np.empty((t, h))
    h_prev = c_prev = np.zeros(h)
    for j in range(t):
        pre = gates[j] + Wh @ h_prev
        gates[j] = _sigmoid(pre)
        gates[j, 2 * h : 3 * h] = np.tanh(pre[2 * h : 3 * h])
        i, f, g, o = gates[j].reshape(4, h)
        cell[j] = f * c_prev + i * g
        hidden[j] = o * np.tanh(cell[j])
        h_prev, c_prev = hidden[j], cell[j]

    head_pre = hidden @ p["head_hidden_w"].T + p["head_hidden_b"]
    head_act = np.maximum(0.0, head_pre)
    if mask_head is not None:
        head_act = head_act * mask_head * keep_scale
    predictions = head_act @ p["head_out_w"][0] + p["head_out_b"][0]

    return ForwardTrace(
        inputs=inputs,
        proj_pre=proj_pre,
        embed=embed,
        gates=gates,
        cell=cell,
        hidden=hidden,
        head_pre=head_pre,
        head_act=head_act,
        predictions=predictions,
        mask_embed=mask_embed,
        mask_head=mask_head,
        dropout_rate=dropout_rate if mask_embed is not None else 0.0,
    )


def backward(model: Model, trace: ForwardTrace, labels: np.ndarray) -> np.ndarray:
    """Exact gradients of mean((y - yhat)^2) through the recorded trace.

    Returns one flat vector in the layout of ``model.params``;
    ``model.views`` names its blocks. Reuses the trace's dropout masks, so
    gradients match finite differences of a forward pass run with the same
    mask seed.
    """
    labels = np.asarray(labels, dtype=np.float64)
    t = trace.n_steps
    D, e, h, m = (model.dims[k] for k in "Dehm")
    if labels.shape != (t,):
        raise TraceMismatchError(f"labels have shape {labels.shape}, trace has t={t}")
    if (
        trace.inputs.shape[1] != D
        or trace.embed.shape[1] != e
        or trace.hidden.shape[1] != h
        or trace.head_act.shape[1] != m
    ):
        raise TraceMismatchError("trace shapes do not match this model")

    p = model.tensors
    keep_scale = (
        1.0 / (1.0 - trace.dropout_rate) if trace.mask_embed is not None else 1.0
    )
    grad = np.zeros_like(model.params)
    named = model.views(grad)

    # Head layers, and the hidden-state gradient that reaches each step from them.
    d_pred = 2.0 * (trace.predictions - labels) / t
    named["head_out_w"][0] = d_pred @ trace.head_act
    named["head_out_b"][0] = d_pred.sum()
    d_act = d_pred[:, None] * p["head_out_w"][0]
    if trace.mask_head is not None:
        d_act = d_act * trace.mask_head * keep_scale
    d_head_pre = d_act * (trace.head_pre > 0.0)
    named["head_hidden_w"][...] = d_head_pre.T @ trace.hidden
    named["head_hidden_b"][...] = d_head_pre.sum(axis=0)
    d_hidden = d_head_pre @ p["head_hidden_w"]

    # Backpropagation through time. Step j's gate pre-activation gradient is
    # (dc, dc, dc, dh) * local[j] over the (i, f, g, o) blocks, and dh
    # reaches the cell gradient as dh * dc_per_dh[j].
    i, f, g, o = np.split(trace.gates, 4, axis=1)
    tanh_c = np.tanh(trace.cell)
    c_prev = np.vstack([np.zeros((1, h)), trace.cell[:-1]])
    local = np.stack(
        [
            g * i * (1.0 - i),
            c_prev * f * (1.0 - f),
            i * (1.0 - g * g),
            tanh_c * o * (1.0 - o),
        ],
        axis=1,
    )  # (t, 4, h)
    dc_per_dh = o * (1.0 - tanh_c * tanh_c)
    Wh = p["lstm_recurrent_w"]
    d_gate = np.empty((t, 4, h))
    dh_next = dc_next = np.zeros(h)
    for j in range(t - 1, -1, -1):
        dh = d_hidden[j] + dh_next
        dc = dc_next + dh * dc_per_dh[j]
        d_gate[j, :3] = dc
        d_gate[j, 3] = dh
        d_gate[j] *= local[j]
        dh_next = d_gate[j].reshape(-1) @ Wh
        dc_next = dc * f[j]
    d_gate = d_gate.reshape(t, 4 * h)

    named["lstm_input_w"][...] = d_gate.T @ trace.embed
    named["lstm_recurrent_w"][...] = d_gate[1:].T @ trace.hidden[:-1]
    named["lstm_b"][...] = d_gate.sum(axis=0)
    d_embed = d_gate @ p["lstm_input_w"]
    if trace.mask_embed is not None:
        d_embed = d_embed * trace.mask_embed * keep_scale
    d_proj_pre = d_embed * (trace.proj_pre > 0.0)
    named["projection_w"][...] = d_proj_pre.T @ trace.inputs
    named["projection_b"][...] = d_proj_pre.sum(axis=0)
    return grad
