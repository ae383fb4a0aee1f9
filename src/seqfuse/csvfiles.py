"""The token and label CSV formats: one parser and one writer for each.

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

Row ``j`` must have ``frame_ms = j*250`` and ``value`` in [-1, 1]. The 250
of both formats stands for the dataset's frame grid, ``frame_len_ms`` (see
:mod:`seqfuse.featureio`). Prediction files share the label layout
(:func:`frame_csv`).

Cells: ``start_ms``, ``end_ms`` and ``frame_ms`` are decimal integers in the
int64 range [-2**63, 2**63 - 1]; values are decimal floats with optional
sign, fraction and exponent (``-0.5``, ``.5``, ``2.5e-3``). Blanks around a
cell are ignored. Digit separators (``1_000``), non-ASCII digits, hex and
quoted cells are rejected, and so are NaN and infinite values. Blank lines
are skipped. Files must be UTF-8 text. Errors name ``path:lineno`` of the
first bad row or byte.

Each file is parsed in one bulk ``np.loadtxt`` pass and validated with
whole-array operations. Floats are written with shortest round-trip
formatting so write/parse is bitwise exact, and every file is written to a
temporary sibling and renamed into place. The Feature CSV writer formats
each run of bit-identical rows once, so the repeated rows of an aligned
track (a word spanning several frames, a pause between words) share one
cell text.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import EmptyTrackError, MalformedRowError
from .tracks import (
    _INT64_MAX,
    DEFAULT_FRAME_LEN_MS,
    FrameTrack,
    TokenTrack,
    _check_frame_len,
    _check_rows,
    _label_checks,
    _token_checks,
)
from .util import read_input_text, write_atomic

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


def frame_csv(header: str, values: np.ndarray, frame_len_ms: int) -> str:
    """A frame-value file's text: ``header``, then row ``j`` as ``j*frame_len_ms,repr(values[j])``.

    Label files and prediction files share this layout; floats use shortest
    round-trip ``repr``, and lines end in LF.
    """
    rows = [f"{j * frame_len_ms},{value!r}" for j, value in enumerate(values.tolist())]
    return "\n".join([header, *rows]) + "\n"


def parse_feature_csv(
    path: str | Path, name: str | None = None, data: bytes | None = None
) -> TokenTrack:
    """Read a Feature CSV into a TokenTrack.

    The track name defaults to the file stem. ``data``, when given, holds
    the file's bytes already read, and those are parsed instead of reading
    ``path``. Raises MalformedRowError on a bad header, wrong column count,
    unparsable or non-finite cells and empty spans, naming ``path:lineno``
    of the first bad row; EmptyTrackError when the file has no data rows.
    """
    path = Path(path)
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
    checks = _token_checks(start_ms, end_ms, np.isfinite(vectors).all(axis=1))
    _check_rows(lambda row: f"{path}:{_lineno(lines, row)}", checks)
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
