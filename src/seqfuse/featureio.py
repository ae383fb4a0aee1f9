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

    {"videos": {
        "vid001": {"partition": "train",
                   "features": {"track0": "features/vid001_track0.csv"},
                   "labels": {"arousal": "labels/vid001_arousal.csv"}}}}

Relative paths are resolved against the manifest's directory. Floats are
written with shortest round-trip formatting so write/parse is bitwise exact,
and every file is written to a temporary sibling and renamed into place.

Cells: ``start_ms``, ``end_ms`` and ``frame_ms`` are decimal integers in the
int64 range [-2**63, 2**63 - 1]; values are decimal floats with optional
sign, fraction and exponent (``-0.5``, ``.5``, ``2.5e-3``). Blanks around a
cell are ignored. Digit separators (``1_000``), non-ASCII digits, hex and
quoted cells are rejected, and so are NaN and infinite values. Blank lines
are skipped. Errors name ``path:lineno`` of the first bad row.

Token tracks are columnar: a TokenTrack holds int64 ``start_ms`` and
``end_ms`` arrays and an (n, d) float64 ``vectors`` matrix. Each file is
parsed in one bulk pass and validated, sorted and aligned with whole-array
operations; ``TokenTrack.tokens`` builds TokenFeature objects only when read.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DimMismatchError,
    EmptyTrackError,
    LengthMismatchError,
    MalformedRowError,
)
from .util import seeded_rng, write_atomic

DEFAULT_FRAME_LEN_MS = 250

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
    """One video: aligned feature tracks plus per-frame labels in [-1, 1]."""

    video_id: str
    tracks: list[FrameTrack]
    labels: dict[str, np.ndarray]

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

    @property
    def n_frames(self) -> int:
        return self.tracks[0].n_frames


@dataclass(eq=False)
class FusedSequence:
    """One video after fusion: a t x D matrix whose column blocks follow track order."""

    video_id: str
    data: np.ndarray
    labels: dict[str, np.ndarray]
    track_dims: tuple[tuple[str, int], ...] | None = None

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2:
            raise DimMismatchError(f"{self.video_id}: fused data must be 2-D")
        if self.track_dims is not None:
            self.track_dims = tuple((str(n), int(d)) for n, d in self.track_dims)
            if sum(d for _, d in self.track_dims) != self.data.shape[1]:
                raise DimMismatchError(
                    f"{self.video_id}: track dims sum to "
                    f"{sum(d for _, d in self.track_dims)}, data has "
                    f"{self.data.shape[1]} columns"
                )
        t = self.data.shape[0]
        for name, values in self.labels.items():
            values = np.asarray(values, dtype=np.float64)
            self.labels[name] = values
            if values.shape != (t,):
                raise LengthMismatchError(
                    f"{self.video_id}: labels {name!r} length {values.shape[0]} != t={t}"
                )

    @property
    def n_frames(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def track_slice(self, name: str) -> np.ndarray:
        """Column block of one constituent track (requires track metadata)."""
        if self.track_dims is None:
            raise ConfigError(f"{self.video_id}: no track metadata recorded")
        offset = 0
        for track_name, dim in self.track_dims:
            if track_name == name:
                return self.data[:, offset : offset + dim]
            offset += dim
        raise ConfigError(f"{self.video_id}: no track named {name!r}")


# ---------------------------------------------------------------------------
# CSV parsing and writing
# ---------------------------------------------------------------------------


def _feature_header(dim: int) -> list[str]:
    return ["start_ms", "end_ms"] + [f"f{i}" for i in range(dim)]


def _read_lines(path: Path) -> list[str]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return fh.read().splitlines()


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


def parse_feature_csv(
    path: str | Path, expected_dim: int | None = None, name: str | None = None
) -> TokenTrack:
    """Read a Feature CSV into a TokenTrack.

    The track name defaults to the file stem. Raises MalformedRowError on a
    bad header, wrong column count, unparsable or non-finite cells and empty
    spans, naming ``path:lineno`` of the first bad row; DimMismatchError when
    ``expected_dim`` is given and violated; EmptyTrackError when the file has
    no data rows.
    """
    path = Path(path)
    lines = _read_lines(path)
    if not lines:
        raise MalformedRowError(f"{path}: empty file, missing header")
    header = lines[0].split(",")
    if len(header) < 3 or header[:2] != ["start_ms", "end_ms"]:
        raise MalformedRowError(f"{path}: bad header {lines[0]!r}")
    dim = len(header) - 2
    if header != _feature_header(dim):
        raise MalformedRowError(f"{path}: bad feature column names in header")
    if expected_dim is not None and dim != expected_dim:
        raise DimMismatchError(f"{path}: header has dim {dim}, expected {expected_dim}")

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


def write_feature_csv(path: str | Path, track: TokenTrack) -> None:
    """Write a TokenTrack as a Feature CSV (LF endings, round-trip exact floats).

    The file is replaced atomically; floats use shortest round-trip ``repr``.
    """
    rows = [",".join(_feature_header(track.dim))]
    rows += [
        f"{start},{end}," + ",".join(map(repr, vector.tolist()))
        for start, end, vector in zip(
            track.start_ms.tolist(), track.end_ms.tolist(), track._rows
        )
    ]
    write_atomic(path, "\n".join(rows) + "\n")


def frame_track_to_tokens(track: FrameTrack) -> TokenTrack:
    """View an aligned track as tokens tiling [0, t*frame_len_ms); frames are not copied."""
    start_ms = np.arange(track.n_frames, dtype=np.int64) * track.frame_len_ms
    return TokenTrack._from_columns(
        track.name, track.dim, start_ms, start_ms + track.frame_len_ms, track.frames
    )


def read_label_csv(path: str | Path, frame_len_ms: int = DEFAULT_FRAME_LEN_MS) -> np.ndarray:
    """Read a Label CSV; validates the frame grid and the [-1, 1] range.

    Errors name ``path:lineno`` of the first bad row.
    """
    path = Path(path)
    lines = _read_lines(path)
    if not lines or lines[0] != "frame_ms,value":
        raise MalformedRowError(f"{path}: bad label header")
    table = _parse_rows(path, lines, 1, 1)
    frame_ms, values = table["ints"][:, 0], table["floats"][:, 0]
    grid = np.arange(len(values), dtype=np.int64) * frame_len_ms
    _check_rows(
        lambda row: f"{path}:{_lineno(lines, row)}",
        [
            (~np.isfinite(values), lambda row: f"non-finite value {values[row]}"),
            (frame_ms != grid, lambda row: f"frame_ms {frame_ms[row]} != {grid[row]}"),
            (np.abs(values) > 1.0, lambda row: f"label {values[row]} outside [-1, 1]"),
        ],
    )
    return values.copy()


def write_label_csv(
    path: str | Path, values: np.ndarray, frame_len_ms: int = DEFAULT_FRAME_LEN_MS
) -> None:
    """Write a Label CSV atomically, one row per frame."""
    rows = ["frame_ms,value"]
    rows += [
        f"{j * frame_len_ms},{value!r}"
        for j, value in enumerate(np.asarray(values, dtype=np.float64).tolist())
    ]
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


def fuse(
    tracks: list[FrameTrack],
    labels: dict[str, np.ndarray],
    video_id: str = "",
) -> FusedSequence:
    """Concatenate aligned tracks column-wise, in list order."""
    if not tracks:
        raise LengthMismatchError("fuse needs at least one track")
    lengths = {tr.n_frames for tr in tracks}
    if len(lengths) != 1:
        raise LengthMismatchError(
            f"tracks disagree on frame count: {sorted(lengths)}"
        )
    t = lengths.pop()
    for name, values in labels.items():
        if len(values) != t:
            raise LengthMismatchError(
                f"labels {name!r} have length {len(values)}, tracks have {t}"
            )
    data = np.hstack([tr.frames for tr in tracks])
    track_dims = tuple((tr.name, tr.dim) for tr in tracks)
    return FusedSequence(video_id, data, dict(labels), track_dims)


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
    seed yields bitwise-identical output.
    """
    lo, hi = int(t_range[0]), int(t_range[1])
    if lo < 2 or hi < lo:
        raise ConfigError(f"t_range ({lo}, {hi}) must satisfy 2 <= lo <= hi")
    if n_videos < 1:
        raise ConfigError("n_videos must be >= 1")
    if not dims or any(d < 1 for d in dims):
        raise ConfigError("dims must be a nonempty list of positive integers")
    if snr <= 0:
        raise ConfigError("snr must be positive")

    rng = seeded_rng(seed)
    mixers = [rng.normal(size=(dim, len(TARGETS))) for dim in dims]
    videos = []
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
    """Dataset manifest; ``root`` anchors the entries' relative paths."""

    videos: dict[str, VideoEntry]
    root: Path = field(default_factory=Path)

    def video_ids(self, partition: str | None = None) -> list[str]:
        """Video ids in manifest order, optionally filtered by partition."""
        if partition is None or partition == "all":
            return list(self.videos)
        return [vid for vid, entry in self.videos.items() if entry.partition == partition]

    def resolve(self, relpath: str) -> Path:
        path = Path(relpath)
        return path if path.is_absolute() else self.root / path


def load_manifest(path: str | Path) -> Manifest:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"manifest not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict) or not isinstance(raw.get("videos"), dict):
        raise ConfigError(f"{path}: manifest must contain a 'videos' object")
    videos = {}
    for vid, entry in raw["videos"].items():
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
        videos[vid] = VideoEntry(partition, features, labels)
    if not videos:
        raise ConfigError(f"{path}: manifest lists no videos")
    return Manifest(videos, root=path.parent)


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
    write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_labeled_sequence(
    manifest: Manifest,
    video_id: str,
    track_order: list[str] | None = None,
    frame_len_ms: int = DEFAULT_FRAME_LEN_MS,
) -> LabeledSequence:
    """Parse, align and assemble one manifest video.

    The number of frames comes from the label files (features beyond the
    labelled horizon are dropped); all label targets must agree on length.
    """
    entry = manifest.videos[video_id]
    labels = {}
    t = None
    for target, relpath in entry.labels.items():
        values = read_label_csv(manifest.resolve(relpath), frame_len_ms)
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
        tracks.append(align_tokens_to_frames(token_track, frame_len_ms, t))
    return LabeledSequence(video_id, tracks, labels)


def load_fused_dataset(
    manifest: Manifest,
    partition: str,
    track_order: list[str] | None = None,
    frame_len_ms: int = DEFAULT_FRAME_LEN_MS,
) -> list[FusedSequence]:
    """Fused sequences for one partition, in manifest video order."""
    sequences = []
    for vid in manifest.video_ids(partition):
        seq = load_labeled_sequence(manifest, vid, track_order, frame_len_ms)
        sequences.append(fuse(seq.tracks, seq.labels, video_id=vid))
    return sequences
