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

    <out_dir>/features/<video>_<track>.csv       one frame-aligned Feature CSV
    <out_dir>/features/<video>_<track>.csv.cols  its parse cache (sidecar)
    <out_dir>/labels/<video>_<target>.csv        one Label CSV
    <out_dir>/manifest.json                      written last, relative paths

Every video of a tree must be on one frame grid, and the manifest records
it (``frame_len_ms`` is written only when it is not 250). A command that
writes a tree removes an existing ``manifest.json`` before it writes any
file, so a tree that a failed run has partly rewritten has no manifest.

Parse cache (sidecar) of a tree's Feature CSV, ``<csv path>.cols``: the
columns that parsing the CSV gives, so that reading it again costs no text
parsing. It is a 40-byte header, all little-endian::

    magic b"SQFCOLS1", int64 n, int64 dim, uint64 CSV byte length,
    uint32 zlib.crc32 of the CSV's bytes, uint32 zlib.crc32 of the payload

then the payload: ``start_ms`` as n int64, ``end_ms`` as n int64 and the
(n, dim) ``vectors`` row by row as float64. The CSV always wins: a sidecar
is used only when its magic, its length, the CSV's length and both checks
match the CSV's bytes as read and every vector value is finite; otherwise,
or when it is absent or cannot be read, the CSV is parsed, with the same
results and errors as if there were no sidecar. The checks guard against
stale and damaged files, not against a sidecar forged for its CSV. The
manifest does not list sidecars, and any Feature CSV may have one: the
readers look for it beside every CSV.

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
A track already on the frame grid, one token per frame as every aligned file
holds, is copied onto the frames rather than averaged again, with the same
bits.
The writer formats each run of bit-identical rows once, so the repeated rows
of an aligned track (a word spanning several frames, a pause between words)
share one cell text.

One video in memory is a LabeledSequence, from the loaders and
``synth_generate`` through the writers, training and evaluation. It holds
one frame grid, ``frame_len_ms``, and fuses its FrameTracks (each a name and
its frames) once, into the (t, D) matrix ``data`` that the model reads; each
track's ``frames`` is a view of its column block, held once.
"""

from __future__ import annotations

import json
import logging
import os
import stat
from collections.abc import Iterable, Sequence
from dataclasses import asdict, dataclass, field
from itertools import repeat, zip_longest
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DimMismatchError,
    EmptyDatasetError,
    EmptyTrackError,
    LengthMismatchError,
    MalformedRowError,
)
from .sidecar import SIDECAR_SUFFIX, read_sidecar, sidecar_bytes, sidecar_path
from .util import (
    check_int,
    read_input,
    read_input_text,
    read_json_object,
    seeded_rng,
    usable_cpus,
    write_atomic,
)

logger = logging.getLogger(__name__)

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
    never use it. ``dim`` follows :func:`seqfuse.util.check_int` with least
    1 (DimMismatchError).
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
        dim = check_int(dim, f"track {name!r}: dim", 1, DimMismatchError)
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
    """Frame-aligned features: row ``j`` is frame ``j`` of its video's frame grid."""

    name: str
    frames: np.ndarray

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2:
            raise DimMismatchError(f"track {self.name!r}: frames must be (t, dim)")
        # The one finiteness guard for frames that are computed, such as
        # alignment's means or synth's noisy tracks.
        finite = np.isfinite(self.frames)
        if not finite.all():
            frame = np.flatnonzero(~finite.all(axis=1))[0]
            raise MalformedRowError(f"track {self.name!r}: frame {frame} is not finite")

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]


def _check_frame_len(value, where: str | Path) -> int:
    """``value`` as an int; ConfigError unless it is an integer from 1 to 2**63 - 1."""
    value = check_int(value, f"{where}: frame_len_ms", 1, ConfigError)
    if value > _INT64_MAX:
        raise ConfigError(f"{where}: frame_len_ms {value} is past the int64 range")
    return value


@dataclass(eq=False)
class LabeledSequence:
    """One video: aligned feature tracks fused into one matrix, plus per-frame labels.

    ``data`` is the (t, D) matrix of :func:`fuse`: the tracks' frames side by
    side, in track order. Each track's ``frames`` is then a view of its column
    block of ``data``, so the frames are held once. Every track must have t
    frames on the one grid ``frame_len_ms``, and every label array t values
    in [-1, 1]. ``label_bytes`` holds each label file's bytes as they were
    read and validated, when the sequence was loaded from files. A label
    that is not finite or not in [-1, 1] raises MalformedRowError naming the
    video, the target and the first such frame (``v: labels 'arousal' frame
    1: non-finite value nan``), with the message of :func:`read_label_csv`.
    """

    video_id: str
    tracks: list[FrameTrack]
    labels: dict[str, np.ndarray]
    label_bytes: dict[str, bytes] = field(default_factory=dict, repr=False)
    frame_len_ms: int = DEFAULT_FRAME_LEN_MS
    data: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.frame_len_ms = _check_frame_len(self.frame_len_ms, self.video_id)
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
            _check_rows(lambda row: f"{self.video_id}: labels {name!r} frame {row}",
                        _label_checks(values))
        self.data = fuse(self.tracks)
        # Point each track's ``frames`` at its column block of ``data``.
        offset = 0
        for track in self.tracks:
            track.frames = self.data[:, offset : offset + track.dim]
            offset += track.dim

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


def _label_checks(values: np.ndarray, *grid) -> list:
    """The :func:`_check_rows` pairs of the label-value rule, in reporting order.

    Each value must be finite, then pass the caller's ``grid`` check if it
    gives one, then lie in [-1, 1].
    """
    return [(~np.isfinite(values), lambda row: f"non-finite value {values[row]}"), *grid,
            (np.abs(values) > 1.0, lambda row: f"label {values[row]} outside [-1, 1]")]


def frame_csv(header: str, values: np.ndarray, frame_len_ms: int) -> str:
    """A frame-value file's text: ``header``, then row ``j`` as ``j*frame_len_ms,repr(values[j])``.

    Label files and prediction files share this layout; floats use shortest
    round-trip ``repr``, and lines end in LF.
    """
    rows = [f"{j * frame_len_ms},{value!r}" for j, value in enumerate(values.tolist())]
    return "\n".join([header, *rows]) + "\n"


def parse_feature_csv(path: str | Path, name: str | None = None) -> TokenTrack:
    """Read a Feature CSV into a TokenTrack.

    The track name defaults to the file stem. Raises MalformedRowError on a
    bad header, wrong column count, unparsable or non-finite cells and empty
    spans, naming ``path:lineno`` of the first bad row; EmptyTrackError when
    the file has no data rows. A sidecar that matches the file's bytes (see
    the module docstring) stands in for the parse, with the same columns.
    """
    path = Path(path)
    data = read_input(path, "feature file")
    cached = read_sidecar(path, data)
    if cached is not None:
        start_ms, end_ms, vectors = cached
        return TokenTrack._from_columns(
            name or path.stem, vectors.shape[1], start_ms, end_ms, vectors
        )
    lines = read_input_text(path, "feature file", data).splitlines()
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


def write_feature_csv(path: str | Path, track: TokenTrack) -> bytes:
    """Write a TokenTrack as a Feature CSV (LF endings, round-trip exact floats).

    The file is replaced atomically; floats use shortest round-trip ``repr``.
    A row bit-identical to the one before it reuses that row's cell text, so
    each run of equal rows is formatted once. A track with no tokens raises
    EmptyTrackError, as :func:`parse_feature_csv` would, and writes nothing.
    Returns the bytes written.
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
    # Each form of the text is dropped as soon as the next is made, so the
    # file is held at most twice at once.
    text = "".join(parts)
    del parts
    data = text.encode()
    del text
    write_atomic(path, data)
    return data


def frame_track_to_tokens(track: FrameTrack, frame_len_ms: int) -> TokenTrack:
    """View an aligned track as tokens tiling [0, t*frame_len_ms); frames are not copied."""
    start_ms = np.arange(track.n_frames, dtype=np.int64) * frame_len_ms
    return TokenTrack._from_columns(
        track.name, track.dim, start_ms, start_ms + frame_len_ms, track.frames
    )


def read_label_csv(
    path: str | Path, frame_len_ms: int = DEFAULT_FRAME_LEN_MS, data: bytes | None = None
) -> np.ndarray:
    """Read a Label CSV; validates the frame grid and the [-1, 1] range.

    ``data``, when given, holds the file's bytes already read, and those are
    parsed instead of reading ``path``. Errors name ``path:lineno`` of the
    first bad row. A ``frame_len_ms`` that :func:`load_manifest` would reject
    raises ConfigError before anything is read.
    """
    path = Path(path)
    frame_len_ms = _check_frame_len(frame_len_ms, path)
    lines = read_input_text(path, "label file", data).splitlines()
    if not lines or lines[0] != "frame_ms,value":
        raise MalformedRowError(f"{path}: bad label header")
    table = _parse_rows(path, lines, 1, 1)
    frame_ms, values = table["ints"][:, 0], table["floats"][:, 0]
    # Row j is due at j * frame_len_ms, which leaves int64 past row ``last``.
    rows, last = np.arange(len(values)), _INT64_MAX // frame_len_ms
    grid = np.minimum(rows, last) * frame_len_ms
    off_grid = (rows > last) | (frame_ms != grid)
    grid_check = (off_grid, lambda row: f"frame_ms {frame_ms[row]} != {row * frame_len_ms}")
    _check_rows(lambda row: f"{path}:{_lineno(lines, row)}", _label_checks(values, grid_check))
    return values.copy()


def write_label_csv(
    path: str | Path, values: np.ndarray, frame_len_ms: int = DEFAULT_FRAME_LEN_MS
) -> None:
    """Write a Label CSV atomically, one row per frame.

    Values that :func:`read_label_csv` would reject raise its error before
    anything is written: EmptyTrackError for no values, MalformedRowError for
    values that are not 1-D, finite and in [-1, 1], or for rows whose
    ``frame_ms`` would be past the int64 range. So does a ``frame_len_ms``
    that :func:`load_manifest` would reject, with ConfigError.
    """
    frame_len_ms = _check_frame_len(frame_len_ms, path)
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise MalformedRowError(f"{path}: labels must be 1-D, got shape {values.shape}")
    if not len(values):
        raise EmptyTrackError(f"{path}: no data rows")
    past_int64 = (np.arange(len(values)) > _INT64_MAX // frame_len_ms,
                  lambda row: f"frame_ms {row * frame_len_ms} is past the int64 range")
    _check_rows(lambda row: f"{path}: frame {row}", _label_checks(values, past_int64))
    write_atomic(path, frame_csv("frame_ms,value", values, frame_len_ms))


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
    return FrameTrack(track.name, _average_tokens(track, frame_len_ms, n_frames))


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


def _average_tokens(track: TokenTrack, frame_len_ms: int, n_frames: int) -> np.ndarray:
    """:func:`align_tokens_to_frames`' (n_frames, dim) means, for any sorted track."""
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
        scaled = TokenTrack._from_columns(
            track.name, dim, track.start_ms, track.end_ms, np.ldexp(vectors, -shift)
        )
        means = _average_tokens(scaled, frame_len_ms, n_frames)
        sums[overflowed] = np.ldexp(means[overflowed], shift)
    return sums


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
    seed yields bitwise-identical output. Both ends of ``t_range`` (at
    least 2, the high end at least the low), ``n_videos`` (at least 1) and
    each entry of the nonempty ``dims`` (at least 1) follow
    :func:`seqfuse.util.check_int` with ConfigError. Tracks too wide or a
    video too long to allocate raise ConfigError naming ``dims`` or
    ``t_range``, and so does an ``snr`` so small that the noise is not
    finite, naming it.
    """
    lo = check_int(t_range[0], "t_range low end", 2, ConfigError)
    hi = check_int(t_range[1], "t_range high end", lo, ConfigError)
    if (hi - 1) * DEFAULT_FRAME_LEN_MS > _INT64_MAX:
        raise ConfigError(f"t_range ({lo}, {hi}) puts frame_ms past the int64 range")
    n_videos = check_int(n_videos, "n_videos", 1, ConfigError)
    if not dims:
        raise ConfigError("dims must be a nonempty list")
    dims = [check_int(dim, f"dims[{k}]", 1, ConfigError) for k, dim in enumerate(dims)]
    if not snr > 0:  # also NaN
        raise ConfigError(f"snr must be positive, got {snr}")

    rng = seeded_rng(seed)
    try:
        mixers = [rng.normal(size=(dim, len(TARGETS))) for dim in dims]
    except (MemoryError, ValueError) as exc:  # ValueError: a size past numpy's index range
        raise ConfigError(f"dims {dims}: the tracks do not fit in memory") from exc
    videos = []
    try:
        for v in range(n_videos):
            t = int(rng.integers(lo, hi + 1))
            labels = {target: _smooth_labels(rng, t) for target in TARGETS}
            stacked = np.stack([labels[target] for target in TARGETS], axis=1)
            tracks = []
            for k, dim in enumerate(dims):
                with np.errstate(over="ignore"):
                    noise = rng.normal(size=(t, dim)) / snr
                frames = stacked @ mixers[k].T + noise
                try:
                    tracks.append(FrameTrack(f"track{k}", frames))
                except MalformedRowError:  # the labels' image is finite; the noise is not
                    raise ConfigError(
                        f"snr {snr} is too small: the noise it scales is not finite"
                    ) from None
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

MANIFEST_NAME = "manifest.json"  # a dataset tree's completion marker


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
    """Raise ConfigError unless ``name`` is a nonempty string that can be part of a file name.

    Video ids, track names and targets become parts of file names in the
    dataset tree and in prediction output, so none may be empty or hold
    ``/``, ``\\`` or NUL.
    """
    if not isinstance(name, str) or not name or any(c in name for c in _PATH_CHARS):
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
    _check_frame_len(frame_len_ms, path)
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
    payload = {"videos": {vid: asdict(entry) for vid, entry in manifest.videos.items()}}
    if manifest.frame_len_ms != DEFAULT_FRAME_LEN_MS:
        payload["frame_len_ms"] = manifest.frame_len_ms
    write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _start_tree(out_dir: Path) -> None:
    """Make a tree's directories and remove its old ``manifest.json``, before any file is made."""
    (out_dir / "features").mkdir(parents=True, exist_ok=True)
    (out_dir / "labels").mkdir(parents=True, exist_ok=True)
    (out_dir / MANIFEST_NAME).unlink(missing_ok=True)


def _video_files(
    video_id: str, targets: Iterable[str], tracks: Iterable[str]
) -> tuple[dict[str, str], dict[str, str]]:
    """Relative paths of one video's label and feature files in a dataset tree."""
    return (
        {target: f"labels/{video_id}_{target}.csv" for target in targets},
        {track: f"features/{video_id}_{track}.csv" for track in tracks},
    )


def _tree_files(video_id: str, targets: Iterable[str], tracks: Iterable[str]) -> list[str]:
    """Relative paths of every file one video writes in a dataset tree, in the order written."""
    labels, features = _video_files(video_id, targets, tracks)
    files = list(labels.values())
    for csv in features.values():
        files += [csv, csv + SIDECAR_SUFFIX]
    return files


def _write_video(
    partition: str, seq: LabeledSequence, frame_len_ms: int, out_dir: Path
) -> VideoEntry:
    """Write one sequence's label files, then its tracks, under ``out_dir``; returns its entry.

    Labels are copied byte for byte from ``label_bytes`` where the sequence
    kept them and formatted on ``frame_len_ms`` otherwise; tracks are written
    as frame-aligned Feature CSVs, to the file names of :func:`_video_files`,
    each followed by its sidecar.
    A grid that :func:`load_manifest` would reject raises ConfigError, a
    sequence on another grid than ``frame_len_ms`` LengthMismatchError, and
    a last frame that ends past the int64 range, which no Feature CSV can
    hold, MalformedRowError, before any file is written.
    """
    _check_frame_len(seq.frame_len_ms, seq.video_id)
    if seq.frame_len_ms != frame_len_ms:
        raise LengthMismatchError(
            f"{seq.video_id}: on frame_len_ms {seq.frame_len_ms}, the dataset on {frame_len_ms}"
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
        tokens = frame_track_to_tokens(track, frame_len_ms)
        path = out_dir / features[track.name]
        csv = write_feature_csv(path, tokens)
        cache = sidecar_bytes(tokens.start_ms, tokens.end_ms, tokens.vectors, csv)
        write_atomic(sidecar_path(path), cache)
    return VideoEntry(partition, features, labels)


def write_dataset(out_dir: str | Path, videos: Iterable[tuple[str, LabeledSequence]]) -> int:
    """Write ``(partition, sequence)`` pairs as a dataset tree; returns the video count.

    Each sequence is written as it is drawn from ``videos``: its label files,
    then its tracks, all on the first sequence's ``frame_len_ms``. Before any
    of a sequence's files is written, a file name that an earlier sequence
    wrote or a grid that :func:`load_manifest` rejects raises ConfigError,
    and a sequence on another grid LengthMismatchError. ``manifest.json``,
    which records the grid, is written last, and an existing one is removed
    first, so a failure leaves none; no videos at all raise
    EmptyDatasetError, since a manifest must list one.
    """
    out_dir = Path(out_dir)
    _start_tree(out_dir)
    claimed, entries, frame_len_ms = set(), {}, None
    for partition, seq in videos:
        frame_len_ms = frame_len_ms or seq.frame_len_ms
        relpaths = _tree_files(seq.video_id, seq.labels, [tr.name for tr in seq.tracks])
        check_outputs([(out_dir / p, f"video {seq.video_id!r}") for p in relpaths], {}, claimed)
        entries[seq.video_id] = _write_video(partition, seq, frame_len_ms, out_dir)
    if not entries:
        raise EmptyDatasetError(f"{out_dir}: no videos to write")
    manifest = Manifest(entries, out_dir, frame_len_ms)
    save_manifest(manifest, out_dir / MANIFEST_NAME)
    return len(entries)


# Bytes of feature and label input (as input_bytes counts them) from which
# ``map_video_groups`` (``align`` and ``metrics.score_partition``) works in
# worker processes (see pool_workers). Measured on a 2-CPU Xeon with BLAS
# pinned to one thread. Align: starting the pool costs about 45 ms, and serial
# alignment runs at about 17 MB of input per second, so the pool breaks even
# near 1.6 MB. Scoring: starting and stopping a two-worker pool costs 8-15 ms,
# and serial loading and prediction of parsed input run at 30 MB (e16/h32/m16
# over D = 10) to 50 MB (D = 900) of input per second, so the pool breaks even
# below 1 MB.
#
# Cached reads: a Feature CSV read through its sidecar is not parsed. On
# ingest-wide's 13.8 MB of aligned train and devel input, a serial load took
# 0.024-0.028 s (500-575 MB/s, most of it the CRC of the CSV's bytes) against
# 0.175-0.19 s parsed (73-79 MB/s), a ratio of 6.5-7.9. So input_bytes counts
# such a file at an eighth of its bytes, except for ``align``, which formats
# every track again at about 30 MB/s whether it parsed it or not. Then
# ingest-wide's aligned test partition counts 0.6 MiB and stays in-process, as
# measured in-process: evaluate and predict each 0.015-0.027 s against
# 0.025-0.041 s pooled. Its 22 MiB of token-rate input still aligns in the
# pool. The count does not see the model's per-frame cost: infer-long's test
# partition, 6.0 MiB without sidecars, still goes to the pool, but the same
# 22k frames at D = 10 with sidecars count 1.8 MiB and score serially, in
# 0.25-0.39 s against 0.24-0.30 s pooled.
POOL_MIN_INPUT_BYTES = 4 << 20


# One parsed byte of a Feature CSV costs about as much as this many read
# through its sidecar (see POOL_MIN_INPUT_BYTES).
_PARSED_PER_CACHED_BYTE = 8


def _regular_file(path: str | Path) -> os.stat_result | None:
    """``os.stat`` of the regular file at ``path``, links followed; None for anything else.

    Never raises: a path that is missing, names no regular file or that the
    OS cannot take gives None.
    """
    try:
        info = os.stat(path)
    except (OSError, ValueError):
        return None
    return info if stat.S_ISREG(info.st_mode) else None


def input_bytes(manifest: Manifest, video_ids: Iterable[str], rewrites: bool = False) -> list[int]:
    """Each listed video's input, in bytes of feature and label files to parse.

    A Feature CSV with a sidecar beside it counts an eighth of its bytes,
    its read cost, unless ``rewrites``: a caller that formats every track
    again, as ``align`` does, pays for each byte whether it is parsed or not.
    Never raises: a path that is missing, not a regular file or that the OS
    cannot take counts 0, and the reader reports it when the video is loaded.
    """
    sizes = []
    for vid in video_ids:
        entry = manifest.videos[vid]
        total = sum(
            getattr(_regular_file(manifest.resolve(p)), "st_size", 0) for p in entry.labels.values()
        )
        for relpath in entry.features.values():
            path = manifest.resolve(relpath)
            size = getattr(_regular_file(path), "st_size", 0)
            if not rewrites and size and _regular_file(sidecar_path(path)) is not None:
                size //= _PARSED_PER_CACHED_BYTE
            total += size
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


def _file_keys(path: str | Path) -> list:
    """The keys by which :func:`check_outputs` compares ``path`` with other files.

    They are its absolute, normalised path, then the ``(st_dev, st_ino)`` of
    the regular file there, if there is one.
    """
    path = os.path.abspath(path)
    info = _regular_file(path)
    return [path] if info is None else [path, (info.st_dev, info.st_ino)]


def input_readers(manifest: Manifest, others: Iterable[tuple[str | Path, str]] = ()) -> dict:
    """What reads each input file, as :func:`check_outputs` takes it.

    Each key of :func:`_file_keys` maps to the names of its readers: first
    the reader of each ``(path, reader)`` of ``others``, such as a command's
    manifest, then ``video 'v'`` for each manifest video, in manifest order,
    that reads the file as a label file, a Feature CSV or a Feature CSV's
    sidecar. Every video is listed, whichever ones a command reads, so a
    command that scores one partition cannot replace an input of another.
    """
    files = list(others)
    for vid, entry in manifest.videos.items():
        features = entry.features.values()
        relpaths = (*entry.labels.values(), *features, *(p + SIDECAR_SUFFIX for p in features))
        files += [(manifest.resolve(relpath), f"video {vid!r}") for relpath in relpaths]
    readers: dict = {}
    for path, reader in files:
        for key in _file_keys(path):
            readers.setdefault(key, []).append(reader)
    return readers


def check_outputs(outputs: Iterable[tuple[Path, str]], readers: dict, claimed: set) -> None:
    """Raise ConfigError at the first output file that is written twice or read.

    ``outputs`` yields ``(path, writer)`` pairs in the order written, where
    ``writer`` names what would write ``path``. For each in turn, the path
    is claimed first: one that ``claimed`` already holds raises ConfigError,
    since names are joined with "_" and two dataset entries can map to one
    file name; ``claimed`` takes each path. Then a file that ``readers`` (see
    :func:`input_readers`) lists under another reader than ``writer`` raises
    ConfigError naming the first such reader. A writer may replace what it
    reads itself: ``align`` writes a video's files only once that video has
    read all of its inputs, so a tree can be aligned in place. Files are
    compared by :func:`_file_keys`, so an output that a symlink (of a file
    or of a directory above it) or a hard link makes the same file as an
    input is refused too.
    """
    for path, writer in outputs:
        keys = _file_keys(path)
        if keys[0] in claimed:
            raise ConfigError(f"{path}: two dataset entries map to this file")
        claimed.add(keys[0])
        other = next((r for key in keys for r in readers.get(key, ()) if r != writer), None)
        if other is not None:
            raise ConfigError(f"{path}: {writer} would write this file, which {other} reads")


def align_dataset(manifest: Manifest, out_dir: str | Path) -> int:
    """Align every manifest video onto its frame grid and write the tree; returns the count.

    Every output file is checked first, in one :func:`check_outputs` walk in
    manifest order: a name that two videos map to raises ConfigError, as
    :func:`write_dataset` would, and so does an output file of one video
    that is an input file of another, before any directory or file is made.
    Each video's features and labels are then loaded with
    :func:`load_labeled_sequence` in manifest track order and written as by
    :func:`write_dataset`, with the same bytes and errors, through
    :func:`map_video_groups`, whose workers on a large input each align and
    write one group of videos and return only their manifest entries. A
    failed pooled run is made again in this process, which writes the same
    bytes again. An existing ``manifest.json`` is removed before the first
    file is written, and the new one is written last, so a failure leaves none.
    """
    out_dir = Path(out_dir)
    outputs = [
        (out_dir / relpath, f"video {vid!r}")
        for vid, entry in manifest.videos.items()
        for relpath in _tree_files(vid, entry.labels, entry.features)
    ]
    check_outputs(outputs, input_readers(manifest), set())
    _start_tree(out_dir)
    aligned = map_video_groups(
        manifest, list(manifest.videos), _align_group, out_dir, rewrites=True
    )
    entries = dict(zip(manifest.videos, aligned))
    save_manifest(Manifest(entries, out_dir, manifest.frame_len_ms), out_dir / MANIFEST_NAME)
    return len(entries)


def load_labeled_sequence(
    manifest: Manifest, video_id: str, track_order: list[str]
) -> LabeledSequence:
    """Parse, align and assemble one manifest video on the manifest's frame grid.

    Its tracks are fused in ``track_order``, the caller's choice of the
    video's manifest tracks (ConfigError names one it lacks). The number of
    frames comes from the first label file (features beyond the labelled
    horizon are dropped); LabeledSequence refuses a label file of another
    length with LengthMismatchError, naming the video and the target.
    """
    entry = manifest.videos[video_id]
    labels, label_bytes = {}, {}
    for target, relpath in entry.labels.items():
        path = manifest.resolve(relpath)
        label_bytes[target] = read_input(path, "label file")
        labels[target] = read_label_csv(path, manifest.frame_len_ms, label_bytes[target])
    t = len(next(iter(labels.values())))
    tracks = []
    for track_name in track_order:
        if track_name not in entry.features:
            raise ConfigError(f"{video_id}: manifest has no track {track_name!r}")
        token_track = parse_feature_csv(manifest.resolve(entry.features[track_name]), track_name)
        tracks.append(align_tokens_to_frames(token_track, manifest.frame_len_ms, t))
    return LabeledSequence(video_id, tracks, labels, label_bytes, manifest.frame_len_ms)


def check_same_tracks(
    seq: LabeledSequence, track_dims: Sequence[tuple[str, int]], owner: str
) -> None:
    """Raise DimMismatchError naming the first track where ``seq`` and ``track_dims`` differ.

    Names and dims are compared in order. ``owner`` names whose tracks
    ``track_dims`` are, such as the first train video or a checkpoint file.
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


def map_video_groups(
    manifest: Manifest, video_ids: list[str], group_fn, *args, rewrites: bool = False
) -> list:
    """``group_fn(manifest, video_ids, *args)``: one result per listed video, in order.

    ``group_fn`` takes videos in the given order and returns one result per
    video, in that order. Run in this process, it defines every result and
    error. On a large input (see :func:`pool_workers`) the videos are first
    split by input size into one group per forked worker process, so
    ``group_fn``, its arguments and its results are pickled. If that pooled
    run raises anything, one WARNING names the exception and the serial run
    is made instead: it raises the first error in the given order, with this
    process's traceback, or returns its results if the failure does not
    repeat. So ``group_fn`` must be safe to run twice. A caller that runs
    threads of its own should not call this on a large input, since the
    workers are forked. ``rewrites`` says that ``group_fn`` formats every
    track again (see :func:`input_bytes`).
    """
    sizes = input_bytes(manifest, video_ids, rewrites)
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
        except Exception as exc:  # noqa: BLE001 - the serial run below raises it in order
            logger.warning("pooled run failed, so its %d videos run again in this process: "
                           "%s: %s", len(video_ids), type(exc).__name__, exc)
    return group_fn(manifest, video_ids, *args)


def load_fused_datasets(
    manifest: Manifest, partitions: Sequence[str], track_order: list[str]
) -> list[list[LabeledSequence]]:
    """The sequences of each partition, in manifest video order, all loaded in one pass.

    Every video is loaded in this process with :func:`load_labeled_sequence`
    and the tracks of ``track_order``, in partition and manifest order, so
    the first load error in that order is raised. No track dims are compared
    here: ``training.train`` checks every train and devel video against the
    first train video, and a caller with another reference checks with
    :func:`check_same_tracks`.
    """
    return [
        [load_labeled_sequence(manifest, vid, track_order) for vid in manifest.video_ids(p)]
        for p in partitions
    ]

