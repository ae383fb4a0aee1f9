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
    # Split by sign to avoid overflow in exp.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


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
    """Every per-step intermediate needed to rerun the backward pass."""

    inputs: np.ndarray  # (t, D) fused features
    proj_pre: np.ndarray  # (t, e) projection pre-activation
    embed: np.ndarray  # (t, e) after relu and embedding dropout
    gate_i: np.ndarray  # (t, h)
    gate_f: np.ndarray  # (t, h)
    gate_g: np.ndarray  # (t, h)
    gate_o: np.ndarray  # (t, h)
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

    proj_pre = np.empty((t, e))
    embed = np.empty((t, e))
    gate_i = np.empty((t, h))
    gate_f = np.empty((t, h))
    gate_g = np.empty((t, h))
    gate_o = np.empty((t, h))
    cell = np.empty((t, h))
    hidden = np.empty((t, h))
    head_pre = np.empty((t, m))
    head_act = np.empty((t, m))
    predictions = np.empty(t)

    p = model.tensors
    Wp, bp = p["projection_w"], p["projection_b"]
    Wx, Wh, b = p["lstm_input_w"], p["lstm_recurrent_w"], p["lstm_b"]
    Wm, bm = p["head_hidden_w"], p["head_hidden_b"]
    Wo, bo = p["head_out_w"], p["head_out_b"]

    h_prev = np.zeros(h)
    c_prev = np.zeros(h)
    for j in range(t):
        proj_pre[j] = Wp @ inputs[j] + bp
        z = np.maximum(0.0, proj_pre[j])
        if mask_embed is not None:
            z = z * mask_embed[j] * keep_scale
        embed[j] = z

        pre = Wx @ z + Wh @ h_prev + b
        gate_i[j] = _sigmoid(pre[0:h])
        gate_f[j] = _sigmoid(pre[h : 2 * h])
        gate_g[j] = np.tanh(pre[2 * h : 3 * h])
        gate_o[j] = _sigmoid(pre[3 * h : 4 * h])
        cell[j] = gate_f[j] * c_prev + gate_i[j] * gate_g[j]
        hidden[j] = gate_o[j] * np.tanh(cell[j])
        h_prev, c_prev = hidden[j], cell[j]

        head_pre[j] = Wm @ hidden[j] + bm
        act = np.maximum(0.0, head_pre[j])
        if mask_head is not None:
            act = act * mask_head[j] * keep_scale
        head_act[j] = act
        predictions[j] = Wo[0] @ act + bo[0]

    return ForwardTrace(
        inputs=inputs,
        proj_pre=proj_pre,
        embed=embed,
        gate_i=gate_i,
        gate_f=gate_f,
        gate_g=gate_g,
        gate_o=gate_o,
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
    Wx, Wh = p["lstm_input_w"], p["lstm_recurrent_w"]
    Wm, Wo = p["head_hidden_w"], p["head_out_w"]
    keep_scale = (
        1.0 / (1.0 - trace.dropout_rate) if trace.mask_embed is not None else 1.0
    )

    d_pred = 2.0 * (trace.predictions - labels) / t

    grad = np.zeros_like(model.params)
    named = model.views(grad)
    g_proj_w, g_proj_b = named["projection_w"], named["projection_b"]
    g_wx, g_wh, g_b = named["lstm_input_w"], named["lstm_recurrent_w"], named["lstm_b"]
    g_hid_w, g_hid_b = named["head_hidden_w"], named["head_hidden_b"]
    g_out_w, g_out_b = named["head_out_w"], named["head_out_b"]

    # Head layers and the per-step hidden-state gradient from the head path.
    d_hidden_head = np.empty((t, h))
    for j in range(t):
        g_out_w[0] += d_pred[j] * trace.head_act[j]
        g_out_b[0] += d_pred[j]
        d_act = Wo[0] * d_pred[j]
        if trace.mask_head is not None:
            d_act = d_act * trace.mask_head[j] * keep_scale
        d_head_pre = d_act * (trace.head_pre[j] > 0.0)
        g_hid_w += np.outer(d_head_pre, trace.hidden[j])
        g_hid_b += d_head_pre
        d_hidden_head[j] = Wm.T @ d_head_pre

    # Backpropagation through time.
    dh_next = np.zeros(h)
    dc_next = np.zeros(h)
    for j in range(t - 1, -1, -1):
        i, f = trace.gate_i[j], trace.gate_f[j]
        g, o = trace.gate_g[j], trace.gate_o[j]
        c_prev = trace.cell[j - 1] if j > 0 else np.zeros(h)
        h_prev = trace.hidden[j - 1] if j > 0 else np.zeros(h)
        tanh_c = np.tanh(trace.cell[j])

        dh = d_hidden_head[j] + dh_next
        do = dh * tanh_c
        dc = dc_next + dh * o * (1.0 - tanh_c * tanh_c)
        di = dc * g
        df = dc * c_prev
        dg = dc * i

        d_gate = np.concatenate(
            [
                di * i * (1.0 - i),
                df * f * (1.0 - f),
                dg * (1.0 - g * g),
                do * o * (1.0 - o),
            ]
        )
        g_wx += np.outer(d_gate, trace.embed[j])
        g_wh += np.outer(d_gate, h_prev)
        g_b += d_gate
        dh_next = Wh.T @ d_gate
        dc_next = dc * f

        d_embed = Wx.T @ d_gate
        if trace.mask_embed is not None:
            d_embed = d_embed * trace.mask_embed[j] * keep_scale
        d_proj_pre = d_embed * (trace.proj_pre[j] > 0.0)
        g_proj_w += np.outer(d_proj_pre, trace.inputs[j])
        g_proj_b += d_proj_pre

    return grad
