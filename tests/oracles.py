"""Independent reference implementations used to check the package.

Everything here is deliberately written along a different computational path
than the library: plain Python loops, scalar math, raw-moment identities,
per-frame interval scans, central finite differences. None of it imports the
functions it is used to verify.
"""

from __future__ import annotations

import math

import numpy as np

from seqfuse import forward, mse_loss
from seqfuse.featureio import FrameTrack


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
    return FrameTrack(track.name, track.dim, frame_len_ms, frames)


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
