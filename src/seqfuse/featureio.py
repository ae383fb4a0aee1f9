"""Feature/label file parsing, frame alignment, fusion, synthetic data.

File formats
------------
Feature CSV (one file per video per track)::

    start_ms,end_ms,f0,...,f{d-1}
    0,250,1.0,0.0
    250,500,3.0,2.0

One row per token; ``start_ms`` inclusive, ``end_ms`` exclusive, integer
milliseconds. Already frame-aligned features use ``start_ms = j*250`` and
``end_ms = (j+1)*250``.

Label CSV (one file per video per target)::

    frame_ms,value
    0,-0.25
    250,-0.11

Row ``j`` must have ``frame_ms = j*250`` and ``value`` in [-1, 1].

Dataset manifest JSON::

    {"frame_len_ms": 500,
     "videos": {
        "vid001": {"partition": "train",
                   "features": {"track0": "features/vid001_track0.csv"},
                   "labels": {"arousal": "labels/vid001_arousal.csv"}}}}

The optional ``frame_len_ms`` (an integer from 1 to 2**63 - 1, 250 when
absent) is the dataset's frame grid; the 250 of the CSV formats above stands
for it. No other top-level key is accepted.
Relative paths are resolved against the manifest's directory. Video ids,
track names and targets become parts of file names, so a name holding ``/``,
``\\`` or NUL is rejected when the manifest is loaded. Floats are written
with shortest round-trip formatting so write/parse is bitwise exact, and every
file is written to a temporary sibling and renamed into place.

Dataset tree, as :func:`write_dataset` lays it out for ``synth`` and
``align``::

    <out_dir>/features/<video>_<track>.csv   one frame-aligned Feature CSV
    <out_dir>/labels/<video>_<target>.csv    one Label CSV
    <out_dir>/manifest.json                  written last, relative paths

Every track of every video must be on one frame grid, and the manifest
records it (``frame_len_ms`` is written only when it is not 250).

Cells: ``start_ms``, ``end_ms`` and ``frame_ms`` are decimal integers in the
int64 range [-2**63, 2**63 - 1]; values are decimal floats with optional
sign, fraction and exponent (``-0.5``, ``.5``, ``2.5e-3``). Blanks around a
cell are ignored. Digit separators (``1_000``), non-ASCII digits, hex and
quoted cells are rejected, and so are NaN and infinite values. Blank lines
are skipped. Files must be UTF-8 text. Errors name ``path:lineno`` of the
first bad row or byte.

Token tracks are columnar: a TokenTrack holds int64 ``start_ms`` and
``end_ms`` arrays and an (n, d) float64 ``vectors`` matrix. Each file is
parsed in one bulk pass and validated, sorted and aligned with whole-array
operations; ``TokenTrack.tokens`` builds TokenFeature objects only when read.
The writer formats each run of bit-identical rows once, so the repeated rows
of an aligned track (a word spanning several frames, a pause between words)
share one cell text.

One video in memory is a LabeledSequence, from the loaders and
``synth_generate`` through the writers, training and evaluation. It fuses
its aligned FrameTracks once, when it is built, into the (t, D) matrix
``data`` that the model reads; each track's ``frames`` is a view of its
column block, so a loaded partition holds its frames once.
"""

from __future__ import annotations

import json
import stat
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import repeat, zip_longest
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DimMismatchError,
    EmptyTrackError,
    LengthMismatchError,
    MalformedRowError,
)
from .util import (
    read_input,
    read_input_text,
    read_json_object,
    seeded_rng,
    usable_cpus,
    write_atomic,
)

DEFAULT_FRAME_LEN_MS = 250

_INT64_MAX = (1 << 63) - 1  # the largest start_ms, end_ms or frame_ms a file holds

TARGETS = ("arousal", "valence")


@dataclass(eq=False)
class TokenFeature:
    """One token-level feature vector with its half-open time span."""

    start_ms: int
    end_ms: int
    vector: np.ndarray

    def __post_init__(self):
        self.vector = np.asarray(self.vector, dtype=np.float64)
        if self.vector.ndim != 1:
            raise DimMismatchError("token vector must be 1-D")
        if self.start_ms >= self.end_ms:
            raise MalformedRowError(
                f"token span [{self.start_ms}, {self.end_ms}) is empty"
            )
        if not np.all(np.isfinite(self.vector)):
            raise MalformedRowError("token vector contains NaN/Inf")


class TokenTrack:
    """Token features of one modality of one video, held as columns.

    ``start_ms`` and ``end_ms`` are int64 arrays and ``vectors`` is the
    (n, dim) float64 matrix, all stably sorted by ``start_ms``; overlapping
    and duplicate spans are legal (subwords may share a span).

    ``TokenTrack(name, dim, tokens)`` builds a track from TokenFeature
    objects. It keeps each token's own vector array, so reading ``vectors``
    stacks them. ``tokens`` builds one TokenFeature per row on every access,
    sharing the row vectors; the file readers, alignment and the writers
    never use it.
    """

    def __init__(self, name: str, dim: int, tokens: Sequence[TokenFeature]):
        for tok in tokens:
            if tok.vector.shape != (dim,):
                raise DimMismatchError(
                    f"track {name!r}: token vector has length "
                    f"{tok.vector.shape[0]}, expected {dim}"
                )
        try:
            start_ms = np.array([tok.start_ms for tok in tokens], dtype=np.int64)
            end_ms = np.array([tok.end_ms for tok in tokens], dtype=np.int64)
        except OverflowError as exc:
            raise MalformedRowError(
                f"track {name!r}: token span outside the int64 range"
            ) from exc
        self._assign(name, dim, start_ms, end_ms, [tok.vector for tok in tokens])

    @classmethod
    def _from_columns(cls, name, dim, start_ms, end_ms, rows) -> TokenTrack:
        """Track over already validated columns, kept without copying when sorted."""
        track = cls.__new__(cls)
        track._assign(name, dim, start_ms, end_ms, rows)
        return track

    def _assign(self, name, dim, start_ms, end_ms, rows) -> None:
        # ``rows`` is an (n, dim) array or a list of n 1-D arrays.
        if dim < 1:
            raise DimMismatchError("track dim must be positive")
        if np.any(start_ms[1:] < start_ms[:-1]):
            order = np.argsort(start_ms, kind="stable")
            start_ms, end_ms = start_ms[order], end_ms[order]
            rows = rows[order] if isinstance(rows, np.ndarray) else [rows[i] for i in order]
        self.name = name
        self.dim = dim
        self.start_ms = start_ms
        self.end_ms = end_ms
        self._rows = rows

    @property
    def vectors(self) -> np.ndarray:
        """The (n, dim) float64 matrix of token vectors, in track order."""
        return np.asarray(self._rows, dtype=np.float64).reshape(len(self.start_ms), self.dim)

    @property
    def tokens(self) -> list[TokenFeature]:
        """One new TokenFeature per row, in track order."""
        return [
            TokenFeature(start, end, vector)
            for start, end, vector in zip(
                self.start_ms.tolist(), self.end_ms.tolist(), self._rows
            )
        ]


@dataclass(eq=False)
class FrameTrack:
    """Frame-aligned features: row ``j`` covers [j*frame_len_ms, (j+1)*frame_len_ms)."""

    name: str
    dim: int
    frame_len_ms: int
    frames: np.ndarray

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2 or self.frames.shape[1] != self.dim:
            raise DimMismatchError(
                f"track {self.name!r}: frames must be (t, {self.dim})"
            )
        if self.frame_len_ms < 1:
            raise MalformedRowError("frame_len_ms must be positive")
        if not np.all(np.isfinite(self.frames)):
            raise MalformedRowError(f"track {self.name!r}: non-finite frame value")

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]


@dataclass(eq=False)
class LabeledSequence:
    """One video: aligned feature tracks fused into one matrix, plus per-frame labels.

    ``data`` is the (t, D) matrix of :func:`fuse`: the tracks' frames side by
    side, in track order. Each track's ``frames`` is then a view of its column
    block of ``data``, so the frames are held once. Every track must have t
    frames on one frame grid, and every label array t values in [-1, 1].
    ``label_bytes`` holds, per target, the label file's bytes exactly as they
    were read and validated, when the sequence was loaded from files. A
    pickled sequence, as a worker process sends it, holds ``data`` once, and
    its tracks' frames are views of ``data`` again when it is unpickled.
    """

    video_id: str
    tracks: list[FrameTrack]
    labels: dict[str, np.ndarray]
    label_bytes: dict[str, bytes] = field(default_factory=dict, repr=False)
    data: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.tracks:
            raise LengthMismatchError(f"{self.video_id}: needs at least one track")
        lengths = {tr.n_frames for tr in self.tracks}
        if len(lengths) != 1:
            raise LengthMismatchError(
                f"{self.video_id}: tracks disagree on frame count {sorted(lengths)}"
            )
        t = lengths.pop()
        if t < 1:
            raise LengthMismatchError(f"{self.video_id}: zero frames")
        grids = {tr.frame_len_ms for tr in self.tracks}
        if len(grids) != 1:
            raise LengthMismatchError(
                f"{self.video_id}: tracks disagree on frame_len_ms {sorted(grids)}"
            )
        self.labels = {k: np.asarray(v, dtype=np.float64) for k, v in self.labels.items()}
        for name, values in self.labels.items():
            if values.shape != (t,):
                raise LengthMismatchError(
                    f"{self.video_id}: labels {name!r} have length "
                    f"{values.shape[0]}, tracks have {t} frames"
                )
            if not np.all(np.isfinite(values)):
                raise MalformedRowError(f"{self.video_id}: non-finite label")
            if np.any(values < -1.0) or np.any(values > 1.0):
                raise MalformedRowError(f"{self.video_id}: label outside [-1, 1]")
        self.data = fuse(self.tracks)
        self._view_tracks()

    def _view_tracks(self) -> None:
        """Point each track's ``frames`` at its column block of ``data``."""
        offset = 0
        for track in self.tracks:
            track.frames = self.data[:, offset : offset + track.dim]
            offset += track.dim

    def __getstate__(self) -> dict:
        # Pickled as they are, the tracks' frames would be sent a second time:
        # numpy pickles a view as an array of its own.
        state = dict(self.__dict__)
        state["tracks"] = [(tr.name, tr.dim, tr.frame_len_ms) for tr in self.tracks]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.tracks = [
            FrameTrack(name, dim, frame_len_ms, np.empty((0, dim)))
            for name, dim, frame_len_ms in state["tracks"]
        ]
        self._view_tracks()

    @property
    def n_frames(self) -> int:
        return self.tracks[0].n_frames

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    @property
    def track_dims(self) -> tuple[tuple[str, int], ...]:
        return tuple((tr.name, tr.dim) for tr in self.tracks)


# ---------------------------------------------------------------------------
# CSV parsing and writing
# ---------------------------------------------------------------------------


def _feature_header(dim: int) -> list[str]:
    return ["start_ms", "end_ms"] + [f"f{i}" for i in range(dim)]


def _lineno(lines: list[str], row: int) -> int:
    """File line number (1-based) of data row ``row``; blank lines hold no row."""
    return [i for i, line in enumerate(lines[1:], start=2) if line][row]


def _parse_rows(path: Path, lines: list[str], n_int: int, n_float: int) -> np.ndarray:
    """Parse every non-blank line after the header in one pass.

    Each row holds ``n_int`` int64 cells, then ``n_float`` float cells. Returns
    a record array with fields ``ints`` (n, n_int) and ``floats`` (n, n_float).
    Raises EmptyTrackError when there is no row, and MalformedRowError naming
    ``path:lineno`` of the first row that does not parse.
    """
    rows = [line for line in lines[1:] if line]
    if not rows:
        raise EmptyTrackError(f"{path}: no data rows")
    dtype = np.dtype([("ints", np.int64, (n_int,)), ("floats", np.float64, (n_float,))])
    try:
        return np.loadtxt(rows, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except ValueError as exc:
        bulk_error = exc
    # The bulk parse does not say which file line failed: find the first row
    # that fails on its own, then its first bad cell.
    for row, line in enumerate(rows):
        try:
            np.loadtxt([line], dtype=dtype, delimiter=",", comments=None)
        except ValueError:
            where = f"{path}:{_lineno(lines, row)}"
            cells = line.split(",")
            if len(cells) != n_int + n_float:
                raise MalformedRowError(
                    f"{where}: expected {n_int + n_float} columns, got {len(cells)}"
                ) from None
            for col, cell in enumerate(cells):
                kind = np.int64 if col < n_int else np.float64
                try:
                    np.loadtxt([line], dtype=kind, delimiter=",", comments=None, usecols=[col])
                except ValueError:
                    raise MalformedRowError(
                        f"{where}: column {col + 1}: {cell!r} is not "
                        + ("an int64 integer" if col < n_int else "a decimal number")
                    ) from None
    raise MalformedRowError(f"{path}: {bulk_error}")


def _check_rows(where, checks) -> None:
    """Raise MalformedRowError at the first row that any check flags.

    ``checks`` pairs a boolean mask over the rows with a function that
    describes a flagged row; where one row fails several checks, the earlier
    check is reported. ``where(row)`` names the row's location.
    """
    flagged = [(int(np.argmax(mask)), k) for k, (mask, _) in enumerate(checks) if mask.any()]
    if flagged:
        row, k = min(flagged)
        raise MalformedRowError(f"{where(row)}: {checks[k][1](row)}")


def parse_feature_csv(path: str | Path, name: str | None = None) -> TokenTrack:
    """Read a Feature CSV into a TokenTrack.

    The track name defaults to the file stem. Raises MalformedRowError on a
    bad header, wrong column count, unparsable or non-finite cells and empty
    spans, naming ``path:lineno`` of the first bad row; EmptyTrackError when
    the file has no data rows.
    """
    path = Path(path)
    lines = read_input_text(path, "feature file").splitlines()
    if not lines:
        raise MalformedRowError(f"{path}: empty file, missing header")
    header = lines[0].split(",")
    if len(header) < 3 or header[:2] != ["start_ms", "end_ms"]:
        raise MalformedRowError(f"{path}: bad header {lines[0]!r}")
    dim = len(header) - 2
    if header != _feature_header(dim):
        raise MalformedRowError(f"{path}: bad feature column names in header")

    table = _parse_rows(path, lines, 2, dim)
    start_ms, end_ms = table["ints"][:, 0], table["ints"][:, 1]
    vectors = table["floats"]
    _check_rows(
        lambda row: f"{path}:{_lineno(lines, row)}",
        [
            (
                start_ms >= end_ms,
                lambda row: f"token span [{start_ms[row]}, {end_ms[row]}) is empty",
            ),
            (~np.isfinite(vectors).all(axis=1), lambda row: "token vector contains NaN/Inf"),
        ],
    )
    return TokenTrack._from_columns(name or path.stem, dim, start_ms, end_ms, vectors)


def _repeats_previous(vectors: np.ndarray) -> list[bool]:
    """Whether each row of ``vectors`` is bit-identical to the row before it.

    Bits, not values, are compared: ``-0.0 == 0.0``, but their ``repr``s differ.
    """
    bits = vectors.view(np.uint64)
    return [False] + (bits[1:] == bits[:-1]).all(axis=1).tolist()


def write_feature_csv(path: str | Path, track: TokenTrack) -> None:
    """Write a TokenTrack as a Feature CSV (LF endings, round-trip exact floats).

    The file is replaced atomically; floats use shortest round-trip ``repr``.
    A row bit-identical to the one before it reuses that row's cell text, so
    each run of equal rows is formatted once. A track with no tokens raises
    EmptyTrackError, as :func:`parse_feature_csv` would, and writes nothing.
    """
    if not len(track.start_ms):
        raise EmptyTrackError(f"{path}: no data rows")
    parts = [",".join(_feature_header(track.dim))]
    cells = ""
    for start, end, repeat, vector in zip(
        track.start_ms.tolist(),
        track.end_ms.tolist(),
        _repeats_previous(track.vectors),
        track._rows,
    ):
        if not repeat:
            cells = ",".join(map(repr, vector.tolist()))
        parts.append(f"\n{start},{end},")
        parts.append(cells)
    parts.append("\n")
    write_atomic(path, "".join(parts))


def frame_track_to_tokens(track: FrameTrack) -> TokenTrack:
    """View an aligned track as tokens tiling [0, t*frame_len_ms); frames are not copied."""
    start_ms = np.arange(track.n_frames, dtype=np.int64) * track.frame_len_ms
    return TokenTrack._from_columns(
        track.name, track.dim, start_ms, start_ms + track.frame_len_ms, track.frames
    )


def read_label_csv(
    path: str | Path, frame_len_ms: int = DEFAULT_FRAME_LEN_MS, data: bytes | None = None
) -> np.ndarray:
    """Read a Label CSV; validates the frame grid and the [-1, 1] range.

    ``data``, when given, holds the file's bytes already read, and those are
    parsed instead of reading ``path``. Errors name ``path:lineno`` of the
    first bad row.
    """
    path = Path(path)
    lines = read_input_text(path, "label file", data).splitlines()
    if not lines or lines[0] != "frame_ms,value":
        raise MalformedRowError(f"{path}: bad label header")
    table = _parse_rows(path, lines, 1, 1)
    frame_ms, values = table["ints"][:, 0], table["floats"][:, 0]
    # Row j is due at j * frame_len_ms, which leaves int64 past row ``last``
    # (when frame_len_ms itself does, only row 0, due at 0, is in range).
    rows, last = np.arange(len(values)), _INT64_MAX // frame_len_ms
    grid = np.minimum(rows, last) * min(frame_len_ms, _INT64_MAX)
    off_grid = (rows > last) | (frame_ms != grid)
    _check_rows(
        lambda row: f"{path}:{_lineno(lines, row)}",
        [
            (~np.isfinite(values), lambda row: f"non-finite value {values[row]}"),
            (off_grid, lambda row: f"frame_ms {frame_ms[row]} != {row * frame_len_ms}"),
            (np.abs(values) > 1.0, lambda row: f"label {values[row]} outside [-1, 1]"),
        ],
    )
    return values.copy()


def write_label_csv(
    path: str | Path, values: np.ndarray, frame_len_ms: int = DEFAULT_FRAME_LEN_MS
) -> None:
    """Write a Label CSV atomically, one row per frame.

    Values that :func:`read_label_csv` would reject raise its error before
    anything is written: EmptyTrackError for no values, MalformedRowError for
    values that are not 1-D, finite and in [-1, 1], or for rows whose
    ``frame_ms`` would be past the int64 range.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise MalformedRowError(f"{path}: labels must be 1-D, got shape {values.shape}")
    if not len(values):
        raise EmptyTrackError(f"{path}: no data rows")
    _check_rows(
        lambda row: f"{path}: frame {row}",
        [
            (~np.isfinite(values), lambda row: f"non-finite value {values[row]}"),
            (np.arange(len(values)) > _INT64_MAX // frame_len_ms,
             lambda row: f"frame_ms {row * frame_len_ms} is past the int64 range"),
            (np.abs(values) > 1.0, lambda row: f"label {values[row]} outside [-1, 1]"),
        ],
    )
    rows = ["frame_ms,value"]
    rows += [f"{j * frame_len_ms},{value!r}" for j, value in enumerate(values.tolist())]
    write_atomic(path, "\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# Alignment and fusion
# ---------------------------------------------------------------------------

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
    """
    if n_frames < 1:
        raise LengthMismatchError("n_frames must be >= 1")
    if frame_len_ms < 1:
        raise MalformedRowError("frame_len_ms must be >= 1")
    dim = track.dim
    first = np.maximum(track.start_ms // frame_len_ms, 0)
    last = np.minimum((track.end_ms - 1) // frame_len_ms, n_frames - 1)
    used = np.flatnonzero(first <= last)
    first = first[used]
    n_covered = last[used] - first + 1
    # Token i's (token, frame) pairs are pair numbers [stop[i] - n_covered[i], stop[i]).
    stop = np.cumsum(n_covered)
    n_pairs = int(stop[-1]) if len(stop) else 0
    vectors = track.vectors
    sums = np.zeros((n_frames, dim), dtype=np.float64)
    flat_sums = sums.reshape(-1)
    block = max(1, _ALIGN_BLOCK_CELLS // dim)
    for lo in range(0, n_pairs, block):
        pair = np.arange(lo, min(lo + block, n_pairs))
        token = np.searchsorted(stop, pair, side="right")
        frame = first[token] + pair - (stop[token] - n_covered[token])
        # np.add.at applies repeated indices one by one in index order.
        cells = (frame[:, None] * dim + np.arange(dim)).reshape(-1)
        np.add.at(flat_sums, cells, vectors[used[token]].reshape(-1))
    bounds = np.bincount(first, minlength=n_frames + 1)
    bounds -= np.bincount(first + n_covered, minlength=n_frames + 1)
    counts = np.cumsum(bounds)[:n_frames]
    covered = counts > 0
    sums[covered] /= counts[covered, None]
    return FrameTrack(track.name, dim, frame_len_ms, sums)


def fuse(tracks: list[FrameTrack]) -> np.ndarray:
    """The (t, D) matrix of the tracks' frames side by side, in list order."""
    return np.hstack([tr.frames for tr in tracks])


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------


def _smooth_labels(rng: np.random.Generator, t: int) -> np.ndarray:
    # Sum of three low-frequency sinusoids; amplitude budget < 1 keeps the
    # clip a no-op in practice, so labels rarely saturate at the range edges.
    freqs = rng.uniform(0.5, 3.0, size=3)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=3)
    amps = rng.uniform(0.1, 0.3, size=3)
    u = np.arange(t, dtype=np.float64) / t
    y = np.zeros(t, dtype=np.float64)
    for a, f, p in zip(amps, freqs, phases):
        y += a * np.sin(2.0 * np.pi * f * u + p)
    return np.clip(y, -1.0, 1.0)


def synth_generate(
    seed: int,
    n_videos: int,
    t_range: tuple[int, int],
    dims: list[int],
    snr: float,
) -> list[LabeledSequence]:
    """Deterministic synthetic dataset with labels learnable from features.

    Each video gets smooth arousal/valence label curves (clipped sums of
    low-frequency sinusoids) and one frame-aligned track per entry of
    ``dims``. Track ``k`` is a fixed linear image of the stacked label pair,
    shared across videos, plus Gaussian noise scaled by ``1/snr``. The same
    seed yields bitwise-identical output. A video too long to allocate
    raises ConfigError naming ``t_range``.
    """
    lo, hi = int(t_range[0]), int(t_range[1])
    if lo < 2 or hi < lo:
        raise ConfigError(f"t_range ({lo}, {hi}) must satisfy 2 <= lo <= hi")
    if (hi - 1) * DEFAULT_FRAME_LEN_MS > _INT64_MAX:
        raise ConfigError(f"t_range ({lo}, {hi}) puts frame_ms past the int64 range")
    if n_videos < 1:
        raise ConfigError("n_videos must be >= 1")
    if not dims or any(d < 1 for d in dims):
        raise ConfigError("dims must be a nonempty list of positive integers")
    if not snr > 0:  # also NaN
        raise ConfigError(f"snr must be positive, got {snr}")

    rng = seeded_rng(seed)
    mixers = [rng.normal(size=(dim, len(TARGETS))) for dim in dims]
    videos = []
    try:
        for v in range(n_videos):
            t = int(rng.integers(lo, hi + 1))
            labels = {target: _smooth_labels(rng, t) for target in TARGETS}
            stacked = np.stack([labels[target] for target in TARGETS], axis=1)
            tracks = []
            for k, dim in enumerate(dims):
                noise = rng.normal(size=(t, dim)) / snr
                frames = stacked @ mixers[k].T + noise
                tracks.append(FrameTrack(f"track{k}", dim, DEFAULT_FRAME_LEN_MS, frames))
            videos.append(LabeledSequence(f"video{v:03d}", tracks, labels))
    except MemoryError as exc:
        raise ConfigError(
            f"t_range ({lo}, {hi}): a video of {t} frames does not fit in memory"
        ) from exc
    return videos


# ---------------------------------------------------------------------------
# Manifest handling and dataset assembly
# ---------------------------------------------------------------------------

PARTITIONS = ("train", "devel", "test")


@dataclass
class VideoEntry:
    partition: str
    features: dict[str, str]
    labels: dict[str, str]


@dataclass
class Manifest:
    """Dataset manifest; ``root`` anchors the entries' relative paths.

    ``frame_len_ms`` is the frame grid of every label file and aligned track.
    """

    videos: dict[str, VideoEntry]
    root: Path = field(default_factory=Path)
    frame_len_ms: int = DEFAULT_FRAME_LEN_MS

    def video_ids(self, partition: str | None = None) -> list[str]:
        """Video ids in manifest order, optionally filtered by partition."""
        if partition is None or partition == "all":
            return list(self.videos)
        return [vid for vid, entry in self.videos.items() if entry.partition == partition]

    def resolve(self, relpath: str) -> Path:
        path = Path(relpath)
        return path if path.is_absolute() else self.root / path


# Characters that would let a name reach outside the directory that a file
# named after it is written to, or that no file name can hold.
_PATH_CHARS = ("/", "\\", "\0")


def check_name(name: str, what: str) -> None:
    """Raise ConfigError unless ``name`` is a string that can be part of a file name.

    Video ids, track names and targets become parts of file names in the
    dataset tree and in prediction output, so none may hold ``/``, ``\\`` or NUL.
    """
    if not isinstance(name, str) or any(c in name for c in _PATH_CHARS):
        raise ConfigError(f"{what} must be a name without '/', '\\' or NUL, got {name!r}")


def load_manifest(path: str | Path) -> Manifest:
    path = Path(path)
    raw = read_json_object(path, "manifest")
    if not isinstance(raw.get("videos"), dict):
        raise ConfigError(f"{path}: manifest must contain a 'videos' object")
    unknown = sorted(set(raw) - {"videos", "frame_len_ms"})
    if unknown:
        raise ConfigError(f"{path}: unknown manifest keys: {', '.join(map(repr, unknown))}")
    frame_len_ms = raw.get("frame_len_ms", DEFAULT_FRAME_LEN_MS)
    if type(frame_len_ms) is not int or frame_len_ms < 1:  # bools are rejected too
        raise ConfigError(
            f"{path}: frame_len_ms must be an integer >= 1, got {frame_len_ms!r}"
        )
    if frame_len_ms > _INT64_MAX:
        raise ConfigError(f"{path}: frame_len_ms {frame_len_ms} is past the int64 range")
    videos = {}
    for vid, entry in raw["videos"].items():
        check_name(vid, f"{path}: video {vid!r}: id")
        try:
            partition = entry["partition"]
            features = entry["features"]
            labels = entry["labels"]
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"{path}: video {vid!r}: bad entry ({exc})") from exc
        if partition not in PARTITIONS:
            raise ConfigError(
                f"{path}: video {vid!r}: partition {partition!r} not in {PARTITIONS}"
            )
        for key, paths in (("features", features), ("labels", labels)):
            if not isinstance(paths, dict) or not all(
                isinstance(p, str) for p in paths.values()
            ):
                raise ConfigError(
                    f"{path}: video {vid!r}: {key!r} must map names to path strings"
                )
        if not features or not labels:
            raise ConfigError(f"{path}: video {vid!r}: needs features and labels")
        for key, names in (("track", features), ("target", labels)):
            for name in names:
                check_name(name, f"{path}: video {vid!r}: {key}")
        videos[vid] = VideoEntry(partition, features, labels)
    if not videos:
        raise ConfigError(f"{path}: manifest lists no videos")
    return Manifest(videos, path.parent, frame_len_ms)


def save_manifest(manifest: Manifest, path: str | Path) -> None:
    payload = {
        "videos": {
            vid: {
                "partition": entry.partition,
                "features": entry.features,
                "labels": entry.labels,
            }
            for vid, entry in manifest.videos.items()
        }
    }
    if manifest.frame_len_ms != DEFAULT_FRAME_LEN_MS:
        payload["frame_len_ms"] = manifest.frame_len_ms
    write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _make_tree_dirs(out_dir: Path) -> None:
    (out_dir / "features").mkdir(parents=True, exist_ok=True)
    (out_dir / "labels").mkdir(parents=True, exist_ok=True)


def _video_files(
    video_id: str, targets: Iterable[str], tracks: Iterable[str]
) -> tuple[dict[str, str], dict[str, str]]:
    """Relative paths of one video's label and feature files in a dataset tree."""
    return (
        {target: f"labels/{video_id}_{target}.csv" for target in targets},
        {track: f"features/{video_id}_{track}.csv" for track in tracks},
    )


def _claim_files(
    claimed: set[str], out_dir: Path, video_id: str, targets: Iterable[str], tracks: Iterable[str]
) -> None:
    """Add one video's file names to ``claimed``, in the order they are written.

    Names are joined with "_", so two dataset entries can map to one file
    name: the first name already in ``claimed`` raises ConfigError.
    """
    labels, features = _video_files(video_id, targets, tracks)
    for relpath in (*labels.values(), *features.values()):
        if relpath in claimed:
            raise ConfigError(f"{out_dir / relpath}: two dataset entries map to this file")
        claimed.add(relpath)


def _write_video(
    partition: str, seq: LabeledSequence, frame_len_ms: int, out_dir: Path
) -> VideoEntry:
    """Write one sequence's label files, then its tracks, under ``out_dir``; returns its entry.

    Labels are copied byte for byte from ``label_bytes`` where the sequence
    kept them and formatted on ``frame_len_ms`` otherwise; tracks are written
    as frame-aligned Feature CSVs, to the file names of :func:`_video_files`.
    A track off ``frame_len_ms`` raises LengthMismatchError, and a last frame
    that ends past the int64 range, which no Feature CSV can hold,
    MalformedRowError, before any file is written.
    """
    grids = {tr.frame_len_ms for tr in seq.tracks}
    if grids != {frame_len_ms}:
        raise LengthMismatchError(
            f"{seq.video_id}: tracks on frame_len_ms {sorted(grids)}, "
            f"the dataset on {frame_len_ms}"
        )
    if seq.n_frames * frame_len_ms > _INT64_MAX:
        raise MalformedRowError(f"{seq.video_id}: frame {seq.n_frames - 1} ends past int64")
    labels, features = _video_files(seq.video_id, seq.labels, [tr.name for tr in seq.tracks])
    for target, values in seq.labels.items():
        path = out_dir / labels[target]
        if target in seq.label_bytes:
            write_atomic(path, seq.label_bytes[target])
        else:
            write_label_csv(path, values, frame_len_ms)
    for track in seq.tracks:
        write_feature_csv(out_dir / features[track.name], frame_track_to_tokens(track))
    return VideoEntry(partition, features, labels)


def write_dataset(out_dir: str | Path, videos: Iterable[tuple[str, LabeledSequence]]) -> int:
    """Write ``(partition, sequence)`` pairs as a dataset tree; returns the video count.

    Each sequence is written as it is drawn from ``videos``: its label files,
    then its tracks. The tree's frame grid is the first sequence's. Before
    any of a sequence's files is written, a file name that an earlier
    sequence wrote raises ConfigError, and a track off the grid
    LengthMismatchError. ``manifest.json``, which records the grid, is
    written last, so a failure leaves none.
    """
    out_dir = Path(out_dir)
    _make_tree_dirs(out_dir)
    claimed, entries, frame_len_ms = set(), {}, None
    for partition, seq in videos:
        frame_len_ms = frame_len_ms or seq.tracks[0].frame_len_ms
        _claim_files(claimed, out_dir, seq.video_id, seq.labels, [tr.name for tr in seq.tracks])
        entries[seq.video_id] = _write_video(partition, seq, frame_len_ms, out_dir)
    manifest = Manifest(entries, out_dir, frame_len_ms or DEFAULT_FRAME_LEN_MS)
    save_manifest(manifest, out_dir / "manifest.json")
    return len(entries)


# Bytes of feature and label input from which ``map_video_groups`` (``align``,
# ``train``'s loading and ``metrics.score_partition``) works in worker
# processes (see pool_workers). Measured on a 2-CPU Xeon with BLAS pinned to
# one thread. Align: starting the pool costs about 45 ms, and serial alignment
# runs at about 17 MB of input per second, so the pool breaks even near
# 1.6 MB. Scoring: starting and stopping a two-worker pool costs 8-15 ms, and
# serial loading and prediction run at 30 MB (e16/h32/m16 over D = 10) to
# 50 MB (D = 900) of input per second, so the pool breaks even below 1 MB.
# Train: serial loading runs at about 49 MB of input per second at D = 900
# (ingest-wide's 14.2 MB of aligned train and devel input in 0.29 s). Two
# workers took 0.22 s: each group loads in 0.16 s, and starting the pool and
# sending the fused arrays back cost the rest. The benchmark's train-small
# input (0.23 MB, and a 0.05 MB devel partition) stays in-process; ingest-wide
# (23.1 MB, its 14.2 MB of aligned train and devel videos and a 5.2 MB test
# partition) and infer-long's 6.3 MB test partition go to the pool.
POOL_MIN_INPUT_BYTES = 4 << 20


def input_bytes(manifest: Manifest, video_ids: Iterable[str]) -> list[int]:
    """Bytes on disk of each listed video's feature and label files.

    Never raises: a path that is missing, not a regular file or that the OS
    cannot take counts 0, and the reader reports it when the video is loaded.
    """
    sizes = []
    for vid in video_ids:
        entry = manifest.videos[vid]
        total = 0
        for relpath in (*entry.features.values(), *entry.labels.values()):
            try:
                info = manifest.resolve(relpath).stat()
            except (OSError, ValueError):
                continue
            if stat.S_ISREG(info.st_mode):
                total += info.st_size
        sizes.append(total)
    return sizes


def pool_workers(sizes: Sequence[int]) -> int:
    """Worker processes for videos of these input sizes; 0 keeps them in this process.

    Nonzero only with two usable CPUs, two videos and POOL_MIN_INPUT_BYTES
    of input; then one per usable CPU, at most one per video.
    """
    cpus = usable_cpus()
    if cpus < 2 or len(sizes) < 2 or sum(sizes) < POOL_MIN_INPUT_BYTES:
        return 0
    return min(cpus, len(sizes))


def _align_group(manifest: Manifest, video_ids: list[str], out_dir: Path) -> list[VideoEntry]:
    return [
        _write_video(
            manifest.videos[vid].partition,
            load_labeled_sequence(manifest, vid, list(manifest.videos[vid].features)),
            manifest.frame_len_ms,
            out_dir,
        )
        for vid in video_ids
    ]


def align_dataset(manifest: Manifest, out_dir: str | Path) -> int:
    """Align every manifest video onto its frame grid and write the tree; returns the count.

    Every file name is checked first: a name that two videos map to raises
    ConfigError, as :func:`write_dataset` would, before any directory or
    file is made. Each video's features and labels are then loaded with
    :func:`load_labeled_sequence` in manifest track order and written as by
    :func:`write_dataset`, with the same bytes and errors, through
    :func:`map_video_groups`, whose workers on a large input each align and
    write one group of videos and return only their manifest entries. A
    failed pooled run is made again in this process, which writes the same
    bytes again. ``manifest.json`` is written last, so a failure leaves none.
    """
    out_dir = Path(out_dir)
    claimed = set()
    for vid, entry in manifest.videos.items():
        _claim_files(claimed, out_dir, vid, entry.labels, entry.features)
    _make_tree_dirs(out_dir)
    aligned = map_video_groups(manifest, list(manifest.videos), _align_group, out_dir)
    entries = dict(zip(manifest.videos, aligned))
    save_manifest(Manifest(entries, out_dir, manifest.frame_len_ms), out_dir / "manifest.json")
    return len(entries)


def load_labeled_sequence(
    manifest: Manifest, video_id: str, track_order: list[str] | None = None
) -> LabeledSequence:
    """Parse, align and assemble one manifest video on the manifest's frame grid.

    The number of frames comes from the label files (features beyond the
    labelled horizon are dropped); all label targets must agree on length.
    """
    entry = manifest.videos[video_id]
    labels, label_bytes = {}, {}
    t = None
    for target, relpath in entry.labels.items():
        path = manifest.resolve(relpath)
        label_bytes[target] = read_input(path, "label file")
        values = read_label_csv(path, manifest.frame_len_ms, label_bytes[target])
        if t is None:
            t = len(values)
        elif len(values) != t:
            raise LengthMismatchError(
                f"{video_id}: label files disagree on length ({target!r} has "
                f"{len(values)}, expected {t})"
            )
        labels[target] = values
    order = track_order if track_order is not None else sorted(entry.features)
    tracks = []
    for track_name in order:
        if track_name not in entry.features:
            raise ConfigError(f"{video_id}: manifest has no track {track_name!r}")
        token_track = parse_feature_csv(
            manifest.resolve(entry.features[track_name]), name=track_name
        )
        tracks.append(align_tokens_to_frames(token_track, manifest.frame_len_ms, t))
    return LabeledSequence(video_id, tracks, labels, label_bytes)


def check_same_tracks(
    seq: LabeledSequence, track_dims: Sequence[tuple[str, int]], owner: str
) -> None:
    """Raise DimMismatchError naming the first track where ``seq`` and ``track_dims`` differ.

    Names and dims are compared in order. ``owner`` names whose tracks
    ``track_dims`` are, such as the first video of a partition or a
    checkpoint file.
    """
    pairs = zip_longest(seq.track_dims, track_dims, fillvalue=(None, None))
    for (name, dim), (ref_name, ref_dim) in pairs:
        if (name, dim) == (ref_name, ref_dim):
            continue
        if name is None:
            problem = f"has no track {ref_name!r} where {owner} has one of dim {ref_dim}"
        elif ref_name is None:
            problem = f"has track {name!r} of dim {dim} where {owner} has no such track"
        else:
            problem = (
                f"track {name!r} has dim {dim} where {owner} has track {ref_name!r} "
                f"of dim {ref_dim}"
            )
        raise DimMismatchError(f"{seq.video_id}: {problem}")


def _split_by_size(video_ids: list[str], sizes: list[int], n_groups: int) -> list[list[str]]:
    """``n_groups`` nonempty groups of about equal size, each in the given order.

    Largest first, each video joins the group with the least input so far
    (on a tie, the one with the fewest videos, then the first).
    """
    totals, members = [0] * n_groups, [[] for _ in range(n_groups)]
    for k in sorted(range(len(video_ids)), key=lambda k: -sizes[k]):
        g = min(range(n_groups), key=lambda g: (totals[g], len(members[g])))
        totals[g] += sizes[k]
        members[g].append(k)
    return [[video_ids[k] for k in sorted(group)] for group in members]


def map_video_groups(manifest: Manifest, video_ids: list[str], group_fn, *args) -> list:
    """``group_fn(manifest, video_ids, *args)``: one result per listed video, in order.

    ``group_fn`` takes videos in the given order and returns one result per
    video, in that order. Run in this process, it defines every result and
    error. On a large input (see :func:`pool_workers`) the videos are first
    split by input size into one group per forked worker process, so
    ``group_fn``, its arguments and its results are pickled. If that pooled
    run raises anything, the serial run is made instead: it raises the first
    error in the given order, with this process's traceback, or returns its
    results if the failure does not repeat. So ``group_fn`` must be safe to
    run twice. A caller that runs threads of its own should not call this
    on a large input, since the workers are forked.
    """
    sizes = input_bytes(manifest, video_ids)
    workers = pool_workers(sizes)
    if workers:
        # Imported here because these modules add about 2 MB to every process
        # that imports the package, and only large inputs use them.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        groups = _split_by_size(video_ids, sizes, workers)
        # Forked, a worker starts in milliseconds with the package imported;
        # spawned, it would import numpy again. The CLI starts no threads of
        # its own, and numpy's BLAS pool guards itself across fork.
        context = multiprocessing.get_context("fork")
        try:
            with ProcessPoolExecutor(workers, mp_context=context) as pool:
                results = pool.map(group_fn, repeat(manifest), groups, *map(repeat, args))
                done = {vid: r for group, rs in zip(groups, results) for vid, r in zip(group, rs)}
            return [done[vid] for vid in video_ids]
        except Exception:  # noqa: BLE001 - the serial run below raises it in order
            pass
    return group_fn(manifest, video_ids, *args)


def _load_group(
    manifest: Manifest, video_ids: list[str], track_order: list[str] | None
) -> list[LabeledSequence]:
    return [load_labeled_sequence(manifest, vid, track_order) for vid in video_ids]


def load_fused_datasets(
    manifest: Manifest, partitions: Sequence[str], track_order: list[str] | None = None
) -> list[list[LabeledSequence]]:
    """The sequences of each partition, in manifest video order, all loaded in one pass.

    Every video is loaded first, through :func:`map_video_groups`, so a load
    error anywhere, the first in partition and manifest order, is raised
    before any track dims are compared. Then each partition's videos must
    have its first video's tracks with the same dims, or DimMismatchError
    names the first track that differs.
    """
    ids = [manifest.video_ids(p) for p in partitions]
    loaded = iter(map_video_groups(manifest, [vid for part in ids for vid in part],
                                   _load_group, track_order))
    datasets = [[next(loaded) for _ in part] for part in ids]
    for dataset in datasets:
        for seq in dataset[1:]:
            check_same_tracks(seq, dataset[0].track_dims, dataset[0].video_id)
    return datasets

