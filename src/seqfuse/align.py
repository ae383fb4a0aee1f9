"""Alignment: token features averaged onto a dataset's frame grid.

Frame ``j`` of a track is the unweighted mean of every token whose span
overlaps [j*frame_len_ms, (j+1)*frame_len_ms) (see
:func:`align_tokens_to_frames`), summed with ``np.add.at`` in blocks of
bounded size. A track already on the frame grid, one token per frame as
every aligned file holds, is copied onto the frames rather than averaged
again, with the same bits. Averaging reads a track's columns and builds no
TokenTrack; its result is a FrameTrack, which checks the frames' shape.
"""

from __future__ import annotations

import numpy as np

from .errors import LengthMismatchError
from .tracks import FrameTrack, TokenTrack, _check_frame_len
from .util import check_int

# Cells (token-frame pairs times dim) that one np.add.at call in
# align_tokens_to_frames gathers. It bounds alignment's scratch memory to a
# few MB however many frames the tokens overlap.
_ALIGN_BLOCK_CELLS = 1 << 18


def align_tokens_to_frames(
    track: TokenTrack, frame_len_ms: int, n_frames: int
) -> FrameTrack:
    """Average token vectors onto a fixed frame grid.

    Frame ``j`` is the unweighted mean of every token whose half-open span
    intersects [j*frame_len_ms, (j+1)*frame_len_ms); any nonempty millisecond
    overlap counts, with no duration weighting. Frames overlapped by no token
    are zero vectors. Each frame's sum starts at zero and adds its tokens in
    track order (ascending start_ms), so results are reproducible bit for bit.
    Finite tokens have a finite mean: a cell whose sum overflows is averaged
    again from its tokens scaled by a power of two (see :func:`_average_tokens`).
    A track already on the grid (see :func:`_on_grid`) holds one token per
    frame, whose mean ``(0.0 + v) / 1`` is ``v + 0.0``, so its rows are
    copied, with the same bits. A grid that ``load_manifest`` would reject
    raises ConfigError, and an ``n_frames`` that is not an integer >= 1
    LengthMismatchError.
    """
    n_frames = check_int(n_frames, "n_frames", 1, LengthMismatchError)
    frame_len_ms = _check_frame_len(frame_len_ms, track.name)
    if _on_grid(track.start_ms, track.end_ms, frame_len_ms, n_frames):
        frames = np.zeros((n_frames, track.dim))
        m = min(len(track.start_ms), n_frames)
        np.add(track.vectors[:m], 0.0, out=frames[:m])  # -0.0 becomes 0.0, as in a sum
        return FrameTrack(track.name, frames)
    means = _average_tokens(track.start_ms, track.end_ms, track.vectors, frame_len_ms, n_frames)
    return FrameTrack(track.name, means)


def _on_grid(start_ms: np.ndarray, end_ms: np.ndarray, frame_len_ms: int, n_frames: int) -> bool:
    """Whether sorted spans put exactly one token in each of their frames.

    That is: row k spans exactly frame k, [k*frame_len_ms, (k+1)*frame_len_ms),
    for every k < m = min(rows, n_frames), and any further row starts at or
    after frame n_frames. Frames are compared by division, so no product
    overflows int64 on any grid.
    """
    m = min(len(start_ms), n_frames)
    start = start_ms[:m]
    return (
        np.array_equal(start // frame_len_ms, np.arange(m))
        and not (start % frame_len_ms).any()
        and bool((end_ms[:m] - start == frame_len_ms).all())  # start >= 0: no overflow
        and (m == len(start_ms) or start_ms[m] // frame_len_ms >= n_frames)
    )


def _average_tokens(start_ms: np.ndarray, end_ms: np.ndarray, vectors: np.ndarray,
                    frame_len_ms: int, n_frames: int) -> np.ndarray:
    """:func:`align_tokens_to_frames`' (n_frames, dim) means of a sorted track's columns."""
    dim = vectors.shape[1]
    first = np.maximum(start_ms // frame_len_ms, 0)
    last = np.minimum((end_ms - 1) // frame_len_ms, n_frames - 1)
    used = np.flatnonzero(first <= last)
    first = first[used]
    n_covered = last[used] - first + 1
    # Token i's (token, frame) pairs are pair numbers [stop[i] - n_covered[i], stop[i]).
    stop = np.cumsum(n_covered)
    n_pairs = int(stop[-1]) if len(stop) else 0
    sums = np.zeros((n_frames, dim), dtype=np.float64)
    flat_sums = sums.reshape(-1)
    block = max(1, _ALIGN_BLOCK_CELLS // dim)
    for lo in range(0, n_pairs, block):
        pair = np.arange(lo, min(lo + block, n_pairs))
        token = np.searchsorted(stop, pair, side="right")
        frame = first[token] + pair - (stop[token] - n_covered[token])
        # np.add.at applies repeated indices one by one in index order. A sum
        # past the float range is inf, and is recomputed below.
        cells = (frame[:, None] * dim + np.arange(dim)).reshape(-1)
        with np.errstate(over="ignore"):
            np.add.at(flat_sums, cells, vectors[used[token]].reshape(-1))
    bounds = np.bincount(first, minlength=n_frames + 1)
    bounds -= np.bincount(first + n_covered, minlength=n_frames + 1)
    counts = np.cumsum(bounds)[:n_frames]
    covered = counts > 0
    sums[covered] /= counts[covered, None]
    overflowed = ~np.isfinite(sums)
    if overflowed.any():
        # The mean of finite tokens is finite, though their sum may not be.
        # Scaled by 2**-shift, which keeps every normal value's bits, c
        # tokens sum to less than half the float range, since c < 2**shift / 2.
        shift = int(counts.max()).bit_length() + 1
        means = _average_tokens(start_ms, end_ms, np.ldexp(vectors, -shift), frame_len_ms, n_frames)
        sums[overflowed] = np.ldexp(means[overflowed], shift)
    return sums
