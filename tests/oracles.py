"""Independent reference implementations used to check the package.

Everything here is deliberately written along a different computational path
than the library: plain Python loops, scalar math, raw-moment identities,
per-frame interval scans, central finite differences, and the exp-form
sigmoid with one allocation per operation in the LSTM reference passes. None
of it imports the functions it is used to verify. The two ``*_rowwise``
passes are the one exception to the different path: they repeat ``nn``'s
own operations in their original loop form, so that byte equality with them
pins the bytes the package computes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from seqfuse.nn import forward
from seqfuse.training import mse_loss
from seqfuse.tracks import FrameTrack
from seqfuse.util import seeded_rng


def ccc_direct(x, y) -> float:
    """Concordance via raw moments: E[xy] - E[x]E[y] etc., plain Python sums."""
    xs = [float(v) for v in x]
    ys = [float(v) for v in y]
    n = len(xs)
    sx = sum(xs) / n
    sy = sum(ys) / n
    sxx = sum(v * v for v in xs) / n
    syy = sum(v * v for v in ys) / n
    sxy = sum(a * b for a, b in zip(xs, ys)) / n
    var_x = sxx - sx * sx
    var_y = syy - sy * sy
    cov = sxy - sx * sy
    return 2.0 * cov / (var_x + var_y + (sx - sy) ** 2)


def align_bruteforce(track, frame_len_ms: int, n_frames: int) -> FrameTrack:
    """Per-frame scan over every token with a millisecond-intersection test."""
    frames = np.zeros((n_frames, track.dim), dtype=np.float64)
    tokens = track.tokens  # built on each access
    for j in range(n_frames):
        frame_lo = j * frame_len_ms
        frame_hi = (j + 1) * frame_len_ms
        acc = np.zeros(track.dim, dtype=np.float64)
        count = 0
        for tok in tokens:
            # half-open intervals [start, end) and [frame_lo, frame_hi)
            if tok.start_ms < frame_hi and tok.end_ms > frame_lo:
                acc = acc + tok.vector
                count += 1
        if count:
            frames[j] = acc / count
    return FrameTrack(track.name, frames)


def feature_csv_rowwise(track) -> str:
    """Feature CSV text of ``track``, every row formatted on its own.

    Each row is its span prefix plus its own ``repr`` of every cell, and the
    rows are joined with newlines; no row's text is reused for another.
    """
    rows = [",".join(["start_ms", "end_ms"] + [f"f{i}" for i in range(track.dim)])]
    rows += [
        f"{start},{end}," + ",".join(map(repr, vector.tolist()))
        for start, end, vector in zip(
            track.start_ms.tolist(), track.end_ms.tolist(), track.vectors
        )
    ]
    return "\n".join(rows) + "\n"


def linear_relu_naive(weight, bias, x) -> list[float]:
    """Elementwise dot products, no matrix routines."""
    out = []
    for row, b in zip(weight, bias):
        s = float(b)
        for w, v in zip(row, x):
            s += float(w) * float(v)
        out.append(s if s > 0.0 else 0.0)
    return out


def _sig(z: float) -> float:
    return 1.0 / (1.0 + math.exp(-z))


def lstm_step_scalar(wx, wh, b, x, h_prev, c_prev):
    """Gate-by-gate scalar evaluation of the standard LSTM equations.

    ``wx`` (4h, in), ``wh`` (4h, h) and ``b`` (4h,) stack the gate blocks in
    (i, f, g, o) row order.
    """
    h = len(h_prev)

    def gate_pre(row: int) -> float:
        s = float(b[row])
        for j, v in enumerate(x):
            s += float(wx[row, j]) * float(v)
        for j, v in enumerate(h_prev):
            s += float(wh[row, j]) * float(v)
        return s

    h_new = []
    c_new = []
    for k in range(h):
        i_k = _sig(gate_pre(k))
        f_k = _sig(gate_pre(h + k))
        g_k = math.tanh(gate_pre(2 * h + k))
        o_k = _sig(gate_pre(3 * h + k))
        c_k = f_k * float(c_prev[k]) + i_k * g_k
        c_new.append(c_k)
        h_new.append(o_k * math.tanh(c_k))
    return np.array(h_new), np.array(c_new)


def sigmoid_exp(x: np.ndarray) -> np.ndarray:
    """1/(1+exp(-x)) for x >= 0 and exp(x)/(1+exp(x)) below; exp never overflows."""
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))


def _recurrence_expform(gates, Wh):
    """Each step adds ``Wh @ h_prev`` to its row, activates the gates with
    :func:`sigmoid_exp` and ``tanh``, and allocates its c and h."""
    t, h = gates.shape[0], Wh.shape[1]
    cell = np.empty((t, h))
    hidden = np.empty((t, h))
    h_prev = c_prev = np.zeros(h)
    for j in range(t):
        pre = gates[j] + Wh @ h_prev
        gates[j] = sigmoid_exp(pre)
        gates[j, 2 * h : 3 * h] = np.tanh(pre[2 * h : 3 * h])
        i, f, g, o = gates[j].reshape(4, h)
        cell[j] = f * c_prev + i * g
        hidden[j] = o * np.tanh(cell[j])
        h_prev, c_prev = hidden[j], cell[j]
    return gates, cell, hidden


def _recurrence_rowwise(gates, Wh):
    """``nn.forward``'s in-place tanh-form step loop as first written: every
    step unpacks its gate row into four fresh views and looks up each numpy
    function by name."""
    t, h = gates.shape[0], Wh.shape[1]
    scale = np.full(4 * h, 0.5)
    scale[2 * h : 3 * h] = 1.0
    shift = 1.0 - scale
    Wh_half = Wh * scale[:, None]
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
    return gates, cell, hidden


@dataclass(eq=False)
class ReferenceTrace:
    """The reference passes' own forward record.

    Beside what ``nn.ForwardTrace`` keeps, it holds both relu
    pre-activations and both keep masks, so the reference backward applies
    each relu gate and each dropout mask from its own record rather than
    from the stored activations as ``nn.backward`` does.
    """

    inputs: np.ndarray
    proj_pre: np.ndarray
    embed: np.ndarray
    gates: np.ndarray
    cell: np.ndarray
    hidden: np.ndarray
    head_pre: np.ndarray
    head_act: np.ndarray
    predictions: np.ndarray
    mask_embed: np.ndarray | None
    mask_head: np.ndarray | None
    dropout_rate: float

    @property
    def n_steps(self) -> int:
        return self.predictions.shape[0]


def _forward(model, inputs, dropout_rate, mask_seed, recurrence) -> ReferenceTrace:
    inputs = np.asarray(inputs, dtype=np.float64)
    e, m = model.dims["e"], model.dims["m"]
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
    gates, cell, hidden = recurrence(
        embed @ p["lstm_input_w"].T + p["lstm_b"], p["lstm_recurrent_w"]
    )
    head_pre = hidden @ p["head_hidden_w"].T + p["head_hidden_b"]
    head_act = np.maximum(0.0, head_pre)
    if mask_head is not None:
        head_act = head_act * mask_head * keep_scale
    predictions = head_act @ p["head_out_w"][0] + p["head_out_b"][0]
    return ReferenceTrace(
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


def forward_reference(model, inputs, dropout_rate=0.0, mask_seed=None) -> ReferenceTrace:
    """The network of ``seqfuse.nn`` with the plain per-step recurrence.

    Dropout masks are drawn exactly as ``nn.forward`` draws them.
    """
    return _forward(model, inputs, dropout_rate, mask_seed, _recurrence_expform)


def forward_rowwise(model, inputs, dropout_rate=0.0, mask_seed=None) -> ReferenceTrace:
    """``nn.forward`` with its step loop as first written; it must match byte for byte."""
    return _forward(model, inputs, dropout_rate, mask_seed, _recurrence_rowwise)


def _bptt_fresh(d_hidden, dc_per_dh, local, f, Wh):
    """The reverse loop with one fresh array per step."""
    t, h = d_hidden.shape
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
    return d_gate.reshape(t, 4 * h)


def _bptt_rowwise(d_hidden, dc_per_dh, local, f, Wh):
    """``nn.backward``'s in-place reverse loop as first written, every numpy
    function looked up by name."""
    t, h = d_hidden.shape
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
    return d_gate


def _backward(model, trace: ReferenceTrace, labels, bptt) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.float64)
    t = trace.n_steps
    h = model.dims["h"]
    p = model.tensors
    keep_scale = (
        1.0 / (1.0 - trace.dropout_rate) if trace.mask_embed is not None else 1.0
    )
    grad = np.zeros_like(model.params)
    named = model.views(grad)

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
    )
    dc_per_dh = o * (1.0 - tanh_c * tanh_c)
    d_gate = bptt(d_hidden, dc_per_dh, local, f, p["lstm_recurrent_w"])

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


def backward_reference(model, trace: ReferenceTrace, labels) -> np.ndarray:
    """Gradients of the MSE loss through ``trace``, one fresh array per step.

    Same formulas as ``nn.backward``; returns a flat vector in the layout of
    ``model.params``.
    """
    return _backward(model, trace, labels, _bptt_fresh)


def backward_rowwise(model, trace: ReferenceTrace, labels) -> np.ndarray:
    """``nn.backward`` with its reverse loop as first written; it must match byte for byte."""
    return _backward(model, trace, labels, _bptt_rowwise)


def mse_handsum(predictions, labels) -> float:
    total = 0.0
    for p, y in zip(predictions, labels):
        total += (float(y) - float(p)) ** 2
    return total / len(labels)


def finite_diff_grads(model, inputs, labels, eps=1e-5, dropout_rate=0.0, mask_seed=None):
    """Central differences of the MSE loss w.r.t. every model parameter."""

    def loss() -> float:
        trace = forward(model, inputs, dropout_rate=dropout_rate, mask_seed=mask_seed)
        return mse_loss(trace.predictions, labels)

    grads = {}
    for name, p in model.tensors.items():
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + eps
            up = loss()
            p[idx] = orig - eps
            down = loss()
            p[idx] = orig
            g[idx] = (up - down) / (2.0 * eps)
        grads[name] = g
    return grads


def gradcheck_max_relerr(analytic: dict, numeric: dict) -> float:
    """Worst-case |a - b| / max(|a|, |b|, 1) over all parameter entries."""
    worst = 0.0
    for name, num in numeric.items():
        ana = analytic[name]
        denom = np.maximum(np.maximum(np.abs(num), np.abs(ana)), 1.0)
        worst = max(worst, float(np.max(np.abs(num - ana) / denom)))
    return worst


def adam_single_update(p, g, lr, b1, b2, eps, m=0.0, v=0.0, step=0):
    """Hand-applied bias-corrected Adam update for one scalar parameter."""
    step += 1
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * g * g
    m_hat = m / (1.0 - b1**step)
    v_hat = v / (1.0 - b2**step)
    return p - lr * m_hat / (math.sqrt(v_hat) + eps), m, v, step
