"""Concordance Correlation Coefficient and the evaluation harness.

Two paths score a model. :func:`evaluate` scores sequences already in
memory, as ``train`` does on its devel set after each epoch.
:func:`score_partition` loads a manifest partition and predicts it, as the
``evaluate`` and ``predict`` commands do, through
``featureio.map_video_groups``, the grouped loader that ``train`` loads its
partitions with too. Each video's tracks are checked against the model's as
soon as it is loaded, and the errors, their order and the predictions are
those of loading the partition video by video in this process and
predicting it in one call; on a large partition, forked workers first try
the same work group by group (see ``featureio.map_video_groups``).
:func:`ccc_report` turns either path's predictions into the report.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInputError,
    EmptyDatasetError,
    LengthMismatchError,
    TargetMissingError,
)
from .featureio import (
    LabeledSequence,
    Manifest,
    check_same_tracks,
    load_labeled_sequence,
    map_video_groups,
)
from .nn import Model, predict
from .util import fmt_float

logger = logging.getLogger(__name__)

DEGENERATE_EPS = 1e-12


def ccc(x: np.ndarray, y: np.ndarray) -> float:
    """Lin's concordance: 2*cov(x,y) / (var(x) + var(y) + (mean gap)^2).

    Population (1/n) moments. Raises DegenerateInputError when the
    denominator vanishes, i.e. both sequences are constant with equal means.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape:
        raise LengthMismatchError(f"ccc inputs have shapes {x.shape} and {y.shape}")
    if x.shape[0] < 2:
        raise LengthMismatchError("ccc needs at least 2 points")
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
        return {
            "target": self.target,
            "concatenated_ccc": self.concatenated_ccc,
            "per_video": dict(self.per_video),
            "n_frames_total": self.n_frames_total,
        }

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
    for video in videos:
        if target not in video.labels:
            raise TargetMissingError(f"video {video.video_id!r} lacks target {target!r}")
    per_video: dict[str, float] = {}
    for video in videos:
        labels = video.labels[target]
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
    all_labels = np.concatenate([video.labels[target] for video in videos])
    all_preds = np.concatenate([video.predictions for video in videos])
    return CccReport(target, ccc(all_preds, all_labels), per_video, len(all_labels))


def evaluate(model: Model, dataset: list[LabeledSequence], target: str) -> CccReport:
    """:func:`ccc_report` of the model's eval-mode predictions on in-memory sequences."""
    preds = predict(model, [seq.data for seq in dataset])
    scored = [
        ScoredVideo(seq.video_id, seq.labels, video_preds)
        for seq, video_preds in zip(dataset, preds)
    ]
    return ccc_report(target, scored)


def _score_group(
    manifest: Manifest,
    video_ids: list[str],
    model: Model,
    track_dims: tuple[tuple[str, int], ...],
    owner: str,
) -> list[ScoredVideo]:
    """Load videos in order, check each against ``track_dims``, and predict them in one call.

    The group function of :func:`score_partition`. The ``predict`` call
    cannot fail once the videos' track dims are the model's, since
    ``load_checkpoint`` checks that those sum to its input width.
    """
    sequences = []
    for vid in video_ids:
        seq = load_labeled_sequence(manifest, vid, [name for name, _ in track_dims])
        check_same_tracks(seq, track_dims, owner)
        sequences.append(seq)
    preds = predict(model, [seq.data for seq in sequences])
    return [ScoredVideo(seq.video_id, seq.labels, p) for seq, p in zip(sequences, preds)]


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
    order is raised, whether a video fails to load or to match.

    The videos go through ``featureio.map_video_groups``: on a large
    partition each forked worker loads and predicts one group of them and
    sends back only labels and predictions. The predictions are the same
    either way, since ``predict``'s output for a video does not depend on
    the other videos it is scored with.
    """
    return map_video_groups(
        manifest, manifest.video_ids(partition), _score_group, model, track_dims, owner
    )
