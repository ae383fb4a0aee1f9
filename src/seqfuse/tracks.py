"""Track types: token tracks, frame tracks and the labeled sequence they fuse into.

Token tracks are columnar: a TokenTrack holds int64 ``start_ms`` and
``end_ms`` arrays and an (n, d) float64 ``vectors`` matrix, stably sorted by
``start_ms``. Its rows follow the token-row rule that Feature CSV rows follow
too (:func:`_token_checks`): a nonempty span, then a finite vector. A
TokenFeature is a plain record of one token, checked only when a TokenTrack
is built from it; ``TokenTrack.tokens`` builds them only when read.

A FrameTrack's row ``j`` is frame ``j`` of its video's frame grid. A grid is
``frame_len_ms`` long, an integer from 1 to 2**63 - 1 (250,
``DEFAULT_FRAME_LEN_MS``, unless a dataset manifest says otherwise). The
frame-shape rule is FrameTrack's alone: its frames are a finite (t, dim)
float64 matrix with t and dim at least 1, so every sequence has frames and
every track a column.

One video in memory is a LabeledSequence, from the loaders and
``synth_generate`` through the writers, training and evaluation. It holds
one frame grid, ``frame_len_ms``, and fuses its FrameTracks (each a name and
its frames) once, into the (t, D) matrix ``data`` that the model reads; each
track's ``frames`` is a view of its column block, held once. Its labels
follow the label-value rule that label files follow too
(:func:`_label_checks`): finite, and in [-1, 1].
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DimMismatchError,
    LengthMismatchError,
    MalformedRowError,
    TargetMissingError,
)
from .util import check_int

DEFAULT_FRAME_LEN_MS = 250

_INT64_MAX = (1 << 63) - 1  # the largest start_ms, end_ms or frame_ms a file holds


@dataclass(eq=False, slots=True)
class TokenFeature:
    """One token's half-open time span and feature vector, as given: a record.

    It checks nothing; :class:`TokenTrack` checks each token it is built from.
    """

    start_ms: int
    end_ms: int
    vector: np.ndarray


class TokenTrack:
    """Token features of one modality of one video, held as columns.

    ``start_ms`` and ``end_ms`` are int64 arrays and ``vectors`` is the
    (n, dim) float64 matrix, all stably sorted by ``start_ms``; overlapping
    and duplicate spans are legal (subwords may share a span).

    ``TokenTrack(name, dim, tokens)`` builds a track from any iterable of
    TokenFeature records, walked once. ``dim`` is checked first, by
    :func:`seqfuse.util.check_int` with least 1 (DimMismatchError). Then each
    token's vector is converted with ``np.asarray(..., float64)``, so a
    float64 array is kept as given and reading ``vectors`` stacks them; one
    that numpy cannot convert is not real numbers (MalformedRowError), and
    it must have shape ``(dim,)`` (DimMismatchError). Each bound must be an
    integer (:func:`seqfuse.util.check_int`) within int64, and the rows must
    follow the token-row rule (MalformedRowError). Each error names the track
    and the token's row in the given order (``track 't' row 1: token span
    [5, 5) is empty``). ``tokens`` builds one TokenFeature per row on every
    access, sharing the row vectors; the file readers, alignment and the
    writers never use it.
    """

    def __init__(self, name: str, dim: int, tokens: Iterable[TokenFeature]):
        dim = check_int(dim, f"track {name!r}: dim", 1, DimMismatchError)
        where = f"track {name!r} row"
        starts, ends, rows = [], [], []
        for row, tok in enumerate(tokens):
            at = f"{where} {row}"
            try:
                vector = np.asarray(tok.vector, dtype=np.float64)
            except (TypeError, ValueError):
                raise MalformedRowError(f"{at}: token vector is not real numbers") from None
            if vector.shape != (dim,):
                raise DimMismatchError(
                    f"{at}: token vector has shape {vector.shape}, expected ({dim},)"
                )
            for what, bound, column in (("start_ms", tok.start_ms, starts),
                                        ("end_ms", tok.end_ms, ends)):
                bound = check_int(bound, f"{at}: {what}", None, MalformedRowError)
                if not -_INT64_MAX - 1 <= bound <= _INT64_MAX:
                    raise MalformedRowError(f"{at}: {what} {bound} is outside the int64 range")
                column.append(bound)
            rows.append(vector)
        start_ms, end_ms = np.array(starts, dtype=np.int64), np.array(ends, dtype=np.int64)
        finite = np.isfinite(np.asarray(rows).reshape(len(rows), dim)).all(axis=1)
        _check_rows(lambda row: f"{where} {row}", _token_checks(start_ms, end_ms, finite))
        self._assign(name, dim, start_ms, end_ms, rows)

    @classmethod
    def _from_columns(cls, name, dim, start_ms, end_ms, rows) -> TokenTrack:
        """Track over already validated columns, kept without copying when sorted.

        ``dim`` is at least 1 here: the Feature CSV parser and the sidecar
        reader read it from their files, and ``frame_track_to_tokens`` from a
        FrameTrack, which is never empty.
        """
        track = cls.__new__(cls)
        track._assign(name, dim, start_ms, end_ms, rows)
        return track

    def _assign(self, name, dim, start_ms, end_ms, rows) -> None:
        # ``rows`` is an (n, dim) array or a list of n 1-D arrays.
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
    """Frame-aligned features: row ``j`` is frame ``j`` of its video's frame grid.

    ``frames`` is kept as a float64 matrix. One that is not 2-D, or has no
    frame or no column, raises DimMismatchError naming the track and the
    shape (``track 'a': frames must be (t, dim) with t and dim at least 1,
    got shape (3, 0)``); one with a value that is not finite raises
    MalformedRowError naming the first such frame.
    """

    name: str
    frames: np.ndarray

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2 or not self.frames.size:
            raise DimMismatchError(f"track {self.name!r}: frames must be (t, dim) with t and "
                                   f"dim at least 1, got shape {self.frames.shape}")
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


def target_labels(video_id: str, labels: dict[str, np.ndarray], target: str) -> np.ndarray:
    """``labels[target]``, one video's labels for the target a model is trained or scored on.

    A video without them raises TargetMissingError
    (``v: no labels for target 'arousal'``).
    """
    if target not in labels:
        raise TargetMissingError(f"{video_id}: no labels for target {target!r}")
    return labels[target]


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


def _token_checks(start_ms: np.ndarray, end_ms: np.ndarray, finite: np.ndarray) -> list:
    """The :func:`_check_rows` pairs of the token-row rule, in reporting order.

    Each token's span must be nonempty, then its vector finite (``finite``
    flags the rows whose vector is).
    """
    return [(start_ms >= end_ms,
             lambda row: f"token span [{start_ms[row]}, {end_ms[row]}) is empty"),
            (~finite, lambda row: "token vector contains NaN/Inf")]


def fuse(tracks: list[FrameTrack]) -> np.ndarray:
    """The (t, D) matrix of the tracks' frames side by side, in list order."""
    return np.hstack([tr.frames for tr in tracks])


def check_same_tracks(
    seq: LabeledSequence, track_dims: Sequence[tuple[str, int]], owner: str
) -> None:
    """Raise DimMismatchError naming the first track where ``seq`` and ``track_dims`` differ.

    Names and dims are compared in order, so a track that one side lacks
    differs too. ``owner`` names whose tracks ``track_dims`` are, such as
    the first train video or a checkpoint file.
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
