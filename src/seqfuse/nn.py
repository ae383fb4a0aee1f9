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

Only the recurrence runs step by step, and one loop runs its steps for
both ``forward`` and ``predict``. A step is one ``Wh @ h_{j-1}`` matvec,
one tanh over the whole 4h gate row, one scale-and-shift that turns the i,
f and o blocks into sigmoids through sigmoid(x) = tanh(x/2)/2 + 1/2, and
the c/h update, all in place: into the step's rows of the trace in
``forward``, into block buffers in ``predict``. A ``backward`` step is the
reverse pass for dh, dc and one gate-gradient row, also in preallocated
buffers. The projection, the head, both dropout sites and every weight
gradient are single matrix expressions over all t steps. One function
computes both relu layers (:func:`_relu_layer`) and one the output unit, for
``forward`` and ``predict`` alike, and one applies either dropout site
(:func:`_dropout`); ``backward`` reads each relu-and-dropout gate from the
stored activation. The input-to-gate product ``Wx @ embed_j + b`` is
computed in windows of EVAL_BLOCK steps, the same windows in ``forward``
and ``predict`` (see :func:`_input_gates`).

``forward`` and ``backward`` are the training path. ``predict`` is the eval
path: it scores up to EVAL_ROWS sequences in one recurrence and keeps no
trace. The sequences, longest first, are the rows of a (B, h) state whose
active prefix shrinks as they end, so a step costs one call sequence however
many rows are active: the shared loop runs over (rows, h) arrays, or over
``forward``'s 1-D arrays once one row is left. Its step buffers are
gate-major, so each gate block of the active rows (the i, f, g or o part of
every row) is one contiguous (rows, h) array, as the c/h update reads it.
Each row still gets its own ``Wh @ h`` gemv and its own products over its
own steps, so its predictions do not depend on the other sequences in the
batch. With numpy's OpenBLAS they are byte-identical to
``forward(...).predictions`` at any BLAS thread count.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimMismatchError, TraceMismatchError
from .util import check_int, seeded_rng


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
    Each dim follows :func:`seqfuse.util.check_int` with least 1
    (DimMismatchError).
    """
    return _layout(*(check_int(dims[k], f"dim {k}", 1, DimMismatchError) for k in "Dehm"))


# Every Adam step builds a new Model of the same dims, so a layout is built
# once per dims and then shared; it holds only ints and tuples.
@functools.lru_cache(maxsize=8)
def _layout(D: int, e: int, h: int, m: int) -> tuple[ParamSpec, ...]:
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
    """Every intermediate, one row per step, that the backward pass reads.

    It keeps no pre-activation and no dropout mask: :func:`backward` takes
    each relu-and-dropout gate from the stored activation, as
    ``d * (embed > 0) * keep_scale`` and ``d * (head_act > 0) * keep_scale``
    with ``keep_scale = 1 / (1 - dropout_rate)``.
    """

    inputs: np.ndarray  # (t, D) fused features
    embed: np.ndarray  # (t, e) after relu and embedding dropout
    gates: np.ndarray  # (t, 4h) activated gates, blocks in (i, f, g, o) order
    cell: np.ndarray  # (t, h) c_j
    hidden: np.ndarray  # (t, h) h_j
    head_act: np.ndarray  # (t, m) after relu and head dropout
    predictions: np.ndarray  # (t,)
    dropout_rate: float  # 0.0 when no masks were drawn

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


def _lstm_steps(steps, h_prev, c_prev, matvec, rec_out, rec, scale, shift, part) -> None:
    """Run tanh-form LSTM steps in place: the one recurrence loop.

    Each item of ``steps`` is (gates, i, f, g, o, c, hj): the step's gate
    row holding its halved input-to-gate product, that row's four gate
    blocks, and where c_j and h_j go. ``matvec(h_prev, rec_out)`` writes the
    halved ``Wh @ h_prev`` into ``rec_out``, which ``rec`` views in the gate
    row's shape. ``scale`` and ``shift`` (see :func:`_tanh_form`) have that
    shape too, and ``part`` is a scratch shaped like c. The functions are
    bound once and ``out`` is passed positionally, so a step does little
    Python work beside its numpy calls.
    """
    tanh, multiply = np.tanh, np.multiply
    for gates, i, f, g, o, c, hj in steps:
        matvec(h_prev, rec_out)
        gates += rec
        tanh(gates, gates)
        gates *= scale
        gates += shift
        multiply(f, c_prev, c)
        multiply(i, g, part)
        c += part
        tanh(c, hj)
        hj *= o
        h_prev, c_prev = hj, c


def _relu_layer(model: Model, layer: str, x: np.ndarray) -> np.ndarray:
    """relu(x @ W.T + b) over the rows of x, for the projection or the head's
    hidden layer: ``layer`` is "projection" or "head_hidden"."""
    p = model.tensors
    return np.maximum(0.0, x @ p[layer + "_w"].T + p[layer + "_b"])


def _output_unit(model: Model, head_act: np.ndarray) -> np.ndarray:
    """The head's linear output unit: one raw prediction per row of ``head_act``."""
    p = model.tensors
    return head_act @ p["head_out_w"][0] + p["head_out_b"][0]


def _dropout(x: np.ndarray, rng: np.random.Generator | None, rate: float) -> np.ndarray:
    """``x`` times a fresh keep mask drawn from ``rng``, kept units divided
    by ``1 - rate``; ``x`` itself when ``rng`` is None."""
    if rng is None:
        return x
    keep_scale = 1.0 / (1.0 - rate)
    return x * (rng.random(x.shape) >= rate) * keep_scale


def forward(
    model: Model,
    inputs: np.ndarray,
    dropout_rate: float = 0.0,
    mask_seed: int | None = None,
) -> ForwardTrace:
    """Run the full network over a (t, D) input matrix, recording the trace.

    Dropout is active only when ``mask_seed`` is given and the rate is
    positive; evaluation mode never touches a random generator. One seeded
    generator draws the embedding mask and then the head mask, so a given
    (model, inputs, mask_seed) is deterministic.
    """
    inputs = _checked_inputs(model, inputs)
    h = model.dims["h"]
    if not 0.0 <= dropout_rate < 1.0:
        raise DimMismatchError("dropout_rate must lie in [0, 1)")
    t = inputs.shape[0]
    rng = seeded_rng(mask_seed) if mask_seed is not None and dropout_rate > 0.0 else None
    embed = _dropout(_relu_layer(model, "projection", inputs), rng, dropout_rate)

    # Rows hold the halved input-to-gate product until step j overwrites
    # row j with its activated gates. The per-gate (t, h) views are made
    # once; ``Wh_half.dot`` is ``np.dot`` without its Python-level dispatch.
    scale, shift, Wh_half = _tanh_form(model)
    gates = np.empty((t, 4 * h))
    for j0 in range(0, t, EVAL_BLOCK):
        gates[j0 : j0 + EVAL_BLOCK] = _input_gates(model, embed, j0, scale)
    cell = np.empty((t, h))
    hidden = np.empty((t, h))
    recurrent = np.empty(4 * h)
    steps = zip(gates, *gates.reshape(t, 4, h).transpose(1, 0, 2), cell, hidden)
    _lstm_steps(steps, np.zeros(h), np.zeros(h), Wh_half.dot, recurrent, recurrent,
                scale, shift, np.empty(h))

    head_act = _dropout(_relu_layer(model, "head_hidden", hidden), rng, dropout_rate)
    return ForwardTrace(
        inputs=inputs,
        embed=embed,
        gates=gates,
        cell=cell,
        hidden=hidden,
        head_act=head_act,
        predictions=_output_unit(model, head_act),
        dropout_rate=dropout_rate if rng is not None else 0.0,
    )


# Rows per input-to-gate product (see :func:`_input_gates`). ``predict``'s
# step buffers hold one block: the gates gate-major, as
# (EVAL_BLOCK, 4, rows, h), and the hidden states as (EVAL_BLOCK, rows, h).
EVAL_BLOCK = 64
# Most videos in one recurrence. A batch holds every member's projection
# and hidden states at once, so this bounds memory on partitions of many
# videos; past about 16 rows a step's fixed cost is already spread thin.
EVAL_ROWS = 16


def _input_gates(model: Model, embed: np.ndarray, j0: int, scale: np.ndarray) -> np.ndarray:
    """Halved input-to-gate rows of steps j0 to min(j0 + EVAL_BLOCK, t).

    They are one product over the window of EVAL_BLOCK rows that ends at
    the last of those steps, or over all t rows when t < EVAL_BLOCK. BLAS
    gives a product's rows last bits that depend on its shape: a product of
    a few rows goes to other kernels, and a large one is split between
    threads. So ``forward`` and ``predict`` both take every row from this
    function, and a row's bits depend only on the sequence and the step.
    """
    hi = min(j0 + EVAL_BLOCK, len(embed))
    lo = max(0, hi - EVAL_BLOCK)
    p = model.tensors
    rows = embed[lo:hi] @ p["lstm_input_w"].T + p["lstm_b"]
    rows *= scale
    return rows[j0 - lo :]


def predict(model: Model, sequences) -> list[np.ndarray]:
    """Eval-mode predictions for each (t, D) matrix, in the order given.

    Dropout is off and no trace is kept. The sequences, sorted longest
    first, are scored EVAL_ROWS at a time in one recurrence each: they are
    the rows of a (B, h) state whose active prefix shrinks as sequences
    end. A step makes one ``Wh @ h`` gemv per active row and applies
    ``forward``'s gate and c/h operations to the active rows at once, on
    gate-major buffers; with one row left it is ``forward``'s own 1-D step.
    Each sequence's projection and head are products over its own steps,
    and its input-to-gate product is computed in ``forward``'s windows of
    its own steps, so no result depends on which other sequences are
    scored with it.
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
    scale, shift, Wh_half = _tanh_form(model)
    lengths = [len(x) for x in inputs]
    embeds = [_relu_layer(model, "projection", x) for x in inputs]
    hidden = [np.empty((t, h)) for t in lengths]

    # Buffers for one block. Step k of sequence v is gate_blk[k, :, v] and
    # hidden_blk[k, v]. gate_blk is gate-major over the block's active rows,
    # so each gate block of a step is one contiguous (a, h) array, and so
    # are its hidden and cell rows. The gate scale and shift are laid out
    # the same way, so no step broadcasts.
    gate_buf = np.empty(K * 4 * B * h)
    hidden_blk = np.empty((K, B, h))
    scale_blk, shift_blk = (np.repeat(x.reshape(4, 1, h), B, axis=1) for x in (scale, shift))
    cell = np.zeros((B, h))
    recurrent = np.empty((B, 4 * h, 1))
    input_part = np.empty((B, h))
    h_prev = np.zeros((B, h))
    preds = [None] * B
    a = B

    # One row's gemv is forward's; several rows' is one stacked matmul, a gemv
    # per row, over the rows' h_prev as columns.
    matmul = np.matmul

    def rows_dot(rows, out):
        matmul(Wh_half, rows[..., None], out)

    for j0 in range(0, lengths[0], K):
        while lengths[a - 1] <= j0:
            a -= 1
        gate_blk = gate_buf[: K * 4 * a * h].reshape(K, 4, a, h)
        for v in range(a):
            rows = _input_gates(model, embeds[v], j0, scale)
            gate_blk[: len(rows), :, v] = rows.reshape(-1, 4, h)
        a_blk, k0, n = a, 0, min(K, lengths[0] - j0)
        while k0 < n:  # one pass per run of steps with the same active rows
            while lengths[a - 1] <= j0 + k0:
                a -= 1
            k1 = min(n, lengths[a - 1] - j0)
            if a == 1:
                # forward's 1-D step, on the row's gates as contiguous 4h rows
                # (copied when other rows share the block)
                G = gate_blk[k0:k1, :, 0].reshape(k1 - k0, 4 * h)
                ifgo = G.reshape(k1 - k0, 4, h).transpose(1, 0, 2)
                H, c, part, hp = hidden_blk[k0:k1, 0], cell[0], input_part[0], h_prev[0]
                matvec, rec_out = Wh_half.dot, recurrent[0, :, 0]
                rec, gate_scale, gate_shift = rec_out, scale, shift
            else:
                # Copied only once a row has ended in this block, so that
                # every operand of a step's gate operations but ``rec`` is
                # contiguous.
                G = np.ascontiguousarray(gate_blk[k0:k1, :, :a])
                ifgo = G.transpose(1, 0, 2, 3)
                H, c, part, hp = hidden_blk[k0:k1, :a], cell[:a], input_part[:a], h_prev[:a]
                matvec, rec_out = rows_dot, recurrent[:a]
                rec = rec_out[..., 0].reshape(a, 4, h).transpose(1, 0, 2)
                gate_scale, gate_shift = (
                    np.ascontiguousarray(x[:, :a]) for x in (scale_blk, shift_blk)
                )
            steps = zip(G, *ifgo, itertools.repeat(c), H)  # c is carried in place
            _lstm_steps(steps, hp, c, matvec, rec_out, rec, gate_scale, gate_shift, part)
            h_prev = hidden_blk[k1 - 1]
            k0 = k1
        for v in range(a_blk):
            n = min(K, lengths[v] - j0)
            hidden[v][j0 : j0 + n] = hidden_blk[:n, v]
            if lengths[v] <= j0 + K:
                preds[v] = _output_unit(model, _relu_layer(model, "head_hidden", hidden[v]))
                embeds[v] = hidden[v] = None
    return preds


def backward(model: Model, trace: ForwardTrace, labels: np.ndarray) -> np.ndarray:
    """Exact gradients of mean((y - yhat)^2) through the recorded trace.

    Returns one flat vector in the layout of ``model.params``;
    ``model.views`` names its blocks. Each relu-and-dropout gate is read
    from the stored activation: a unit of ``embed`` or ``head_act`` is
    nonzero exactly where relu passed it and its mask kept it, and a kept
    unit was scaled by ``keep_scale``, which is 1.0 without dropout. So the
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
    keep_scale = 1.0 / (1.0 - trace.dropout_rate)
    grad = np.zeros_like(model.params)
    named = model.views(grad)

    # Head layers, and the hidden-state gradient that reaches each step from them.
    d_pred = 2.0 * (trace.predictions - labels) / t
    named["head_out_w"][0] = d_pred @ trace.head_act
    named["head_out_b"][0] = d_pred.sum()
    d_head_pre = d_pred[:, None] * p["head_out_w"][0] * (trace.head_act > 0.0) * keep_scale
    named["head_hidden_w"][...] = d_head_pre.T @ trace.hidden
    named["head_hidden_b"][...] = d_head_pre.sum(axis=0)
    d_hidden = d_head_pre @ p["head_hidden_w"]

    # Backpropagation through time. Step j's gate pre-activation gradient is
    # (dc, dc, dc, dh) * local[j] over the (i, f, g, o) blocks, and dh
    # reaches the cell gradient as dh * dc_per_dh[j]. The reverse loop works
    # in place: d_hidden[j] accumulates into dh, and ``dc`` carries the cell
    # gradient from step j + 1 into step j.
    i, f, g, o = trace.gates.reshape(t, 4, h).transpose(1, 0, 2)
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
    multiply = np.multiply
    per_step = (d_gate, d_gate.reshape(t, 4, h), d_hidden, dc_per_dh, local, f)
    for row, blocks, dh, dc_dh, local_j, f_j in zip(*(a[::-1] for a in per_step)):
        dh += dh_next
        multiply(dh, dc_dh, dc_from_dh)
        dc += dc_from_dh
        blocks[:3] = dc
        blocks[3] = dh
        blocks *= local_j
        row.dot(Wh, dh_next)  # np.dot without its Python-level dispatch
        dc *= f_j

    named["lstm_input_w"][...] = d_gate.T @ trace.embed
    named["lstm_recurrent_w"][...] = d_gate[1:].T @ trace.hidden[:-1]
    named["lstm_b"][...] = d_gate.sum(axis=0)
    d_proj_pre = d_gate @ p["lstm_input_w"] * (trace.embed > 0.0) * keep_scale
    named["projection_w"][...] = d_proj_pre.T @ trace.inputs
    named["projection_b"][...] = d_proj_pre.sum(axis=0)
    return grad
