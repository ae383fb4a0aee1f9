"""Concordance Correlation Coefficient and the evaluation harness.

Two paths score a model. :func:`evaluate` scores sequences already in
memory, as ``train`` does on its devel set after each epoch.
:func:`score_partition` loads a manifest partition and predicts it, as the
``evaluate`` command does, through ``pool.map_video_groups``, the
grouped loader that ``align`` runs on too. Each video's
tracks are checked against the model's as soon as it is loaded, and the
errors, their order and the predictions are those of loading the partition
video by video in this process and predicting it in one call; on a large
partition, forked workers first try the same work group by group (see
``pool.map_video_groups``). :func:`predict_partition`, for the
``predict`` command, does the same work and formats each video's prediction
file (:func:`prediction_csv`) where it was scored, so each worker formats its
own videos. Both paths refuse predictions that are not finite with
NonFiniteOutputError. :func:`ccc_report` turns scored videos into the report.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    DegenerateInputError,
    EmptyDatasetError,
    LengthMismatchError,
    NonFiniteOutputError,
)
from .csvfiles import frame_csv
from .featureio import Manifest, input_bytes, load_labeled_sequence
from .nn import Model, predict
from .pool import map_video_groups
from .tracks import LabeledSequence, check_same_tracks, target_labels
from .util import fmt_float

logger = logging.getLogger(__name__)

DEGENERATE_EPS = 1e-12


def ccc(x: np.ndarray, y: np.ndarray) -> float:
    """Lin's concordance: 2*cov(x,y) / (var(x) + var(y) + (mean gap)^2).

    Population (1/n) moments. Raises DegenerateInputError when the
    denominator vanishes, i.e. both sequences are constant with equal means:
    when it is below DEGENERATE_EPS once both inputs are scaled together so
    that the larger peak magnitude lies in [1/2, 1).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape:
        raise LengthMismatchError(f"ccc inputs have shapes {x.shape} and {y.shape}")
    if x.shape[0] < 2:
        raise LengthMismatchError("ccc needs at least 2 points")
    # CCC is unchanged when x and y are scaled together, and a power of two
    # scales exactly, so finite inputs are brought to a peak magnitude in
    # [1/2, 1): no sum or square can overflow, and the degenerate threshold
    # is relative to the inputs' scale. A zero, inf or NaN peak leaves them as
    # given.
    peak = max(np.max(np.abs(x)), np.max(np.abs(y)))
    shift = -math.frexp(peak)[1]
    if shift:
        x, y = np.ldexp(x, shift), np.ldexp(y, shift)
    mean_x = np.mean(x)
    mean_y = np.mean(y)
    dx = x - mean_x
    dy = y - mean_y
    var_x = np.mean(dx * dx)
    var_y = np.mean(dy * dy)
    cov = np.mean(dx * dy)
    denom = var_x + var_y + (mean_x - mean_y) ** 2
    if denom < DEGENERATE_EPS:
        raise DegenerateInputError("both sequences are constant and equal")
    return float(2.0 * cov / denom)


@dataclass
class CccReport:
    """Evaluation output: the headline concatenated score plus per-video detail."""

    target: str
    concatenated_ccc: float
    per_video: dict[str, float]
    n_frames_total: int

    def to_dict(self) -> dict:
        return asdict(self)

    def summary(self) -> str:
        return (
            f"{self.target}: concatenated CCC {fmt_float(self.concatenated_ccc)} "
            f"over {len(self.per_video)} videos ({self.n_frames_total} frames)"
        )


@dataclass
class ScoredVideo:
    """One scored video: its labels and the model's predictions."""

    video_id: str
    labels: dict[str, np.ndarray]
    predictions: np.ndarray


def ccc_report(target: str, videos: list[ScoredVideo]) -> CccReport:
    """CCC of the predictions against the ``target`` labels, over all videos and per video.

    The headline score is CCC over all predictions/labels concatenated in
    the order given; per-video scores are computed independently. A video
    with fewer than 2 frames, or whose per-video CCC is degenerate, is
    logged and omitted from ``per_video`` but still contributes to the
    concatenated score and to ``n_frames_total``.
    """
    if not videos:
        raise EmptyDatasetError("evaluate needs at least one sequence")
    targets = [target_labels(video.video_id, video.labels, target) for video in videos]
    per_video: dict[str, float] = {}
    for video, labels in zip(videos, targets):
        if len(labels) < 2:
            logger.warning(
                "video %r: per-video CCC undefined (needs 2 frames, has %d)",
                video.video_id,
                len(labels),
            )
            continue
        try:
            per_video[video.video_id] = ccc(video.predictions, labels)
        except DegenerateInputError:
            logger.warning(
                "video %r: per-video CCC undefined (constant equal sequences)",
                video.video_id,
            )
    all_labels = np.concatenate(targets)
    all_preds = np.concatenate([video.predictions for video in videos])
    return CccReport(target, ccc(all_preds, all_labels), per_video, len(all_labels))


def _predict_videos(model: Model, seqs: list[LabeledSequence], owner: str) -> list[ScoredVideo]:
    """The model's eval-mode predictions on the sequences, in one ``predict`` call.

    The first video, in the order given, whose predictions are not finite
    raises NonFiniteOutputError naming it and ``owner``, the model's name.
    """
    # An overflow is refused below, so numpy's warnings on the way add nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        preds = predict(model, [seq.data for seq in seqs])
    for seq, p in zip(seqs, preds):
        if not np.isfinite(p).all():
            raise NonFiniteOutputError(
                f"{seq.video_id}: the predictions of {owner} are not finite "
                "(its parameters or these features overflow float64)"
            )
    return [ScoredVideo(seq.video_id, seq.labels, p) for seq, p in zip(seqs, preds)]


def evaluate(model: Model, dataset: list[LabeledSequence], target: str) -> CccReport:
    """:func:`ccc_report` of the model's eval-mode predictions on in-memory sequences."""
    return ccc_report(target, _predict_videos(model, dataset, "the model"))


def _score_group(
    video_ids: list[str],
    manifest: Manifest,
    model: Model,
    track_dims: tuple[tuple[str, int], ...],
    owner: str,
) -> list[ScoredVideo]:
    """:func:`score_partition`'s group function: load, check and predict videos in order."""
    sequences = []
    for vid in video_ids:
        seq = load_labeled_sequence(manifest, vid, [name for name, _ in track_dims])
        check_same_tracks(seq, track_dims, owner)
        sequences.append(seq)
    return _predict_videos(model, sequences, owner)


def prediction_csv(predictions: np.ndarray, frame_len_ms: int) -> str:
    """One video's prediction file: a ``frame_ms,prediction`` header, then one row per frame.

    Row ``j`` is ``j*frame_len_ms`` and the prediction clamped to [-1, 1],
    in shortest round-trip ``repr``.
    """
    return frame_csv("frame_ms,prediction", np.clip(predictions, -1.0, 1.0), frame_len_ms)


def _predict_group(
    video_ids: list[str],
    manifest: Manifest,
    model: Model,
    track_dims: tuple[tuple[str, int], ...],
    owner: str,
) -> list[str]:
    """:func:`predict_partition`'s group function: :func:`_score_group`, then each file's text."""
    return [
        prediction_csv(video.predictions, manifest.frame_len_ms)
        for video in _score_group(video_ids, manifest, model, track_dims, owner)
    ]


def predict_partition(
    model: Model,
    manifest: Manifest,
    partition: str,
    track_dims: tuple[tuple[str, int], ...],
    owner: str,
) -> list[str]:
    """:func:`score_partition`'s work, returning each video's :func:`prediction_csv` text.

    The texts are in manifest order, and the errors are those of
    :func:`score_partition`. On a large partition each forked worker formats
    the files of the videos it scored and sends back only their text.
    """
    ids = manifest.video_ids(partition)
    return map_video_groups(ids, input_bytes(manifest, ids), _predict_group, manifest, model,
                            track_dims, owner)


def score_partition(
    model: Model,
    manifest: Manifest,
    partition: str,
    track_dims: tuple[tuple[str, int], ...],
    owner: str,
) -> list[ScoredVideo]:
    """Load a partition's videos in ``track_dims``' track order and predict them.

    Returns the videos in manifest order. Each video must have the tracks
    of ``track_dims`` with the same dims, or DimMismatchError names the
    video, its first differing track and ``owner``, whose tracks
    ``track_dims`` are (a checkpoint file, say). The first error in manifest
    order is raised, whether a video fails to load or to match; then the
    first video whose predictions are not finite, as NonFiniteOutputError.

    The videos go through ``pool.map_video_groups``: on a large
    partition each forked worker loads and predicts one group of them and
    sends back only labels and predictions. The predictions are the same
    either way, since ``predict``'s output for a video does not depend on
    the other videos it is scored with.
    """
    ids = manifest.video_ids(partition)
    return map_video_groups(ids, input_bytes(manifest, ids), _score_group, manifest, model,
                            track_dims, owner)
