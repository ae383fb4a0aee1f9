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

Only the recurrence runs step by step. A ``forward`` step is one
``Wh @ h_{j-1}`` matvec, one tanh over the whole 4h gate row, one
scale-and-shift that turns the i, f and o blocks into sigmoids through
sigmoid(x) = tanh(x/2)/2 + 1/2, and the c/h update written in place into
the step's rows of the trace. A ``backward`` step is the reverse pass for
dh, dc and one gate-gradient row, also in preallocated buffers. The
projection, the input-to-gate product ``Wx @ embed_j + b``, the head, both
dropout sites and every weight gradient are single matrix expressions over
all t steps.

``forward`` and ``backward`` are the training path. ``predict`` is the eval
path: it scores up to EVAL_ROWS sequences in one recurrence and keeps no
trace. The sequences, longest first, are the rows of a (B, h) state whose
active prefix shrinks as they end, so a step costs one call sequence however
many rows are active. Each row still gets its own ``Wh @ h`` gemv and its own
products over its own steps, so its predictions do not depend on the other
sequences in the batch. With numpy's OpenBLAS they are byte-identical to
``forward(...).predictions`` unless e >= 32 and h <= 4 (see EVAL_BLOCK).
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


@dataclass(eq=False)
class Model:
    """Projection -> LSTM -> two-layer regression head.

    Every parameter lives in one contiguous float64 vector ``params`` laid out
    by :func:`param_layout`; ``tensors`` maps each parameter's name to a
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
    generator draws every tensor in :func:`param_layout` order. The
    forget-gate bias block is set to 1.0 after the draw; everything else
    keeps its uniform sample.
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


def _checked_inputs(model: Model, inputs) -> np.ndarray:
    inputs = np.asarray(inputs, dtype=np.float64)
    D = model.dims["D"]
    if inputs.ndim != 2 or inputs.shape[1] != D:
        raise DimMismatchError(
            f"inputs have shape {inputs.shape}, model expects (t, {D})"
        )
    return inputs


def _tanh_form(model: Model) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row gate scale and shift, and Wh with its sigmoid rows halved.

    sigmoid(x) = tanh(x/2)/2 + 1/2. Halving is exact (barring subnormals),
    so once the i, f and o rows of the input-to-gate product and of Wh are
    halved, each step's pre-activation is exactly half the plain one on
    those rows, and one tanh plus one scale-and-shift activates the whole
    gate row.
    """
    h = model.dims["h"]
    scale = np.full(4 * h, 0.5)
    scale[2 * h : 3 * h] = 1.0
    shift = 1.0 - scale  # (1/2, 1/2, 0, 1/2) over the (i, f, g, o) blocks
    return scale, shift, model.tensors["lstm_recurrent_w"] * scale[:, None]


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
    inputs = _checked_inputs(model, inputs)
    e, h, m = (model.dims[k] for k in "ehm")
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

    # Rows hold the halved input-to-gate product until step j overwrites
    # row j with its activated gates.
    scale, shift, Wh_half = _tanh_form(model)
    gates = embed @ p["lstm_input_w"].T + p["lstm_b"]
    gates *= scale
    cell = np.empty((t, h))
    hidden = np.empty((t, h))
    blocks = gates.reshape(t, 4, h)
    recurrent = np.empty(4 * h)
    input_part = np.empty(h)
    h_prev = c_prev = np.zeros(h)
    for row, (i, f, g, o), c, hj in zip(gates, blocks, cell, hidden):
        np.dot(Wh_half, h_prev, out=recurrent)
        row += recurrent
        np.tanh(row, out=row)
        row *= scale
        row += shift
        np.multiply(f, c_prev, out=c)
        np.multiply(i, g, out=input_part)
        c += input_part
        np.tanh(c, out=hj)
        hj *= o
        h_prev, c_prev = hj, c

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


# Rows per input-to-gate product in ``predict``: each video's product is
# computed in blocks of this many of its own steps. BLAS sends a product of
# a few rows to other kernels whose last bits can differ (OpenBLAS also
# sends products of at most 1200 cells when e >= 32), so a video's last
# block is the window of this many rows that ends at its last step, and a
# shorter video is one product over all its steps, as in ``forward``. With
# 64 rows the blocks match ``forward``'s product bit for bit unless e >= 32
# and h <= 4.
EVAL_BLOCK = 64
# Most videos in one recurrence. A batch holds every member's projection
# and hidden states at once, so this bounds memory on partitions of many
# videos; past about 16 rows a step's fixed cost is already spread thin.
EVAL_ROWS = 16


def predict(model: Model, sequences) -> list[np.ndarray]:
    """Eval-mode predictions for each (t, D) matrix, in the order given.

    Dropout is off and no trace is kept. The sequences, sorted longest
    first, are scored EVAL_ROWS at a time in one recurrence each: they are
    the rows of a (B, h) state whose active prefix shrinks as sequences
    end. A step makes one ``Wh @ h`` gemv per active row (with one row left,
    ``forward``'s own 1-D ``np.dot``) and applies ``forward``'s gate and c/h
    operations to the active rows at once. Each
    sequence's projection and head are products over its own steps, and its
    input-to-gate product is computed in blocks of EVAL_BLOCK of its own
    steps, so no result depends on which other sequences are scored with it.
    """
    inputs = [_checked_inputs(model, x) for x in sequences]
    preds = [np.zeros(0) for _ in inputs]
    order = sorted(
        (v for v, x in enumerate(inputs) if len(x)), key=lambda v: -len(inputs[v])
    )
    for first in range(0, len(order), EVAL_ROWS):
        batch = order[first : first + EVAL_ROWS]
        for v, y in zip(batch, _predict_batch(model, [inputs[v] for v in batch])):
            preds[v] = y
    return preds


def _predict_batch(model: Model, inputs: list[np.ndarray]) -> list[np.ndarray]:
    """``predict`` for nonempty inputs sorted longest first."""
    h, K, B = model.dims["h"], EVAL_BLOCK, len(inputs)
    p = model.tensors
    scale, shift, Wh_half = _tanh_form(model)
    lengths = [len(x) for x in inputs]
    embeds = [
        np.maximum(0.0, x @ p["projection_w"].T + p["projection_b"]) for x in inputs
    ]
    hidden = [np.empty((t, h)) for t in lengths]

    # Step-major buffers for one block: row k of each holds step j0 + k of
    # every active sequence, so the active rows of a step are contiguous.
    gate_blk = np.empty((K, B, 4 * h))
    hidden_blk = np.empty((K, B, h))
    cell = np.zeros((B, h))
    recurrent = np.empty((B, 4 * h, 1))
    input_part = np.empty((B, h))
    h_prev = np.zeros((B, h, 1))
    preds = [None] * B
    a = B
    for j0 in range(0, lengths[0], K):
        while lengths[a - 1] <= j0:
            a -= 1
        for v in range(a):
            hi = min(j0 + K, lengths[v])
            lo = max(0, hi - K)
            blk = embeds[v][lo:hi] @ p["lstm_input_w"].T + p["lstm_b"]
            blk *= scale
            gate_blk[: hi - j0, v] = blk[j0 - lo :]
        a_blk, k0, n = a, 0, min(K, lengths[0] - j0)
        while k0 < n:  # one pass per run of steps with the same active rows
            while lengths[a - 1] <= j0 + k0:
                a -= 1
            k1 = min(n, lengths[a - 1] - j0)
            G, H = gate_blk[k0:k1, :a], hidden_blk[k0:k1, :a]
            c, part, rec_col = cell[:a], input_part[:a], recurrent[:a]
            if a == 1:  # one row: forward's 1-D matvec costs less than a stacked matmul
                matvec, G, H, c, part = np.dot, G[:, 0], H[:, 0], c[0], part[0]
                rec = rec_col = rec_col[0, :, 0]
                h_prev, H_cols = h_prev[0, :, 0], H
            else:
                matvec, rec, h_prev, H_cols = np.matmul, rec_col[..., 0], h_prev[:a], H[..., None]
            ifgo = [G[..., s * h : (s + 1) * h] for s in range(4)]
            for gates, i, f, g, o, hj, hj_col in zip(G, *ifgo, H, H_cols):
                matvec(Wh_half, h_prev, out=rec_col)
                gates += rec
                np.tanh(gates, out=gates)
                gates *= scale
                gates += shift
                c *= f
                np.multiply(i, g, out=part)
                c += part
                np.tanh(c, out=hj)
                hj *= o
                h_prev = hj_col
            h_prev = hidden_blk[k1 - 1, :a, :, None]  # as columns, also after a 1-D pass
            k0 = k1
        for v in range(a_blk):
            n = min(K, lengths[v] - j0)
            hidden[v][j0 : j0 + n] = hidden_blk[:n, v]
            if lengths[v] <= j0 + K:
                head_act = np.maximum(
                    0.0, hidden[v] @ p["head_hidden_w"].T + p["head_hidden_b"]
                )
                preds[v] = head_act @ p["head_out_w"][0] + p["head_out_b"][0]
                embeds[v] = hidden[v] = None
    return preds


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
    # reaches the cell gradient as dh * dc_per_dh[j]. The reverse loop works
    # in place: d_hidden[j] accumulates into dh, and ``dc`` carries the cell
    # gradient from step j + 1 into step j.
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
    d_gate = np.empty((t, 4 * h))
    dh_next, dc, dc_from_dh = np.zeros(h), np.zeros(h), np.empty(h)
    per_step = (d_gate, d_gate.reshape(t, 4, h), d_hidden, dc_per_dh, local, f)
    for row, blocks, dh, dc_dh, local_j, f_j in zip(*(a[::-1] for a in per_step)):
        dh += dh_next
        np.multiply(dh, dc_dh, out=dc_from_dh)
        dc += dc_from_dh
        blocks[:3] = dc
        blocks[3] = dh
        blocks *= local_j
        np.dot(row, Wh, out=dh_next)
        dc *= f_j

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
