"""Concordance Correlation Coefficient and the evaluation harness.

Two paths score a model. :func:`evaluate` scores sequences already in
memory, as ``train`` does on its devel set after each epoch.
:func:`score_partition` loads a manifest partition and predicts it, as the
``evaluate`` and ``predict`` commands do. On a large partition (see
``featureio.pool_workers``) it does so in forked worker processes, each of
which loads and predicts one group of videos and sends back only their
track dims, labels and predictions; a small one runs the same group
function once in this process. Either way the errors, their order and the
predictions are those of loading the partition video by video and
predicting it in one call. :func:`ccc_report` turns either path's
predictions into the report.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import repeat

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
    input_bytes,
    load_labeled_sequence,
    pool_workers,
)
from .nn import Model, predict
from .util import fmt_float, map_in_workers

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
    """One scored video: its track dims and labels, and the model's predictions.

    ``predictions`` is None when the video was loaded but not predicted,
    because its partition does not have the model's track dims.
    """

    video_id: str
    track_dims: tuple[tuple[str, int], ...]
    labels: dict[str, np.ndarray]
    predictions: np.ndarray | None = None


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
        ScoredVideo(seq.video_id, seq.track_dims, seq.labels, video_preds)
        for seq, video_preds in zip(dataset, preds)
    ]
    return ccc_report(target, scored)


def _score_group(
    model: Model,
    manifest: Manifest,
    video_ids: list[str],
    track_dims: tuple[tuple[str, int], ...],
) -> tuple[list[ScoredVideo], Exception | None]:
    """Load one group's videos in order, and predict them if all have ``track_dims``.

    Runs in a worker process on a large partition, so the first error is
    returned, not raised, for the caller to raise in partition order; the
    videos after it are not loaded. The videos are predicted in one
    ``predict`` call, which cannot fail once their track dims are the
    model's, since ``load_checkpoint`` checks that those sum to its input
    width.
    """
    scored, data = [], []
    try:
        for vid in video_ids:
            seq = load_labeled_sequence(manifest, vid, [name for name, _ in track_dims])
            scored.append(ScoredVideo(vid, seq.track_dims, seq.labels))
            data.append(seq.data)
    except Exception as exc:  # noqa: BLE001 - raised by score_partition in order
        return scored, exc
    if all(video.track_dims == track_dims for video in scored):
        for video, preds in zip(scored, predict(model, data)):
            video.predictions = preds
    return scored, None


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


def score_partition(
    model: Model, manifest: Manifest, partition: str, track_dims: tuple[tuple[str, int], ...]
) -> list[ScoredVideo]:
    """Load a partition's videos in ``track_dims``' track order and predict them.

    Returns the videos in manifest order. The first error in that order is
    raised: a video that fails to load, or one whose track dims differ from
    the first video's (DimMismatchError, as :func:`load_fused_dataset`
    raises it). When the videos' track dims are not ``track_dims``, nothing
    is predicted, and every ``predictions`` is None.

    On a large partition (``pool_workers``) the videos are split by input
    size into one group per worker, each loaded and predicted in a forked
    worker process; otherwise one group of all of them is, in this process.
    The predictions are the same either way, since ``predict``'s output for
    a video does not depend on the other videos it is scored with.
    """
    video_ids = manifest.video_ids(partition)
    sizes = input_bytes(manifest, video_ids)
    workers = pool_workers(sizes)
    if workers:
        groups = _split_by_size(video_ids, sizes, workers)
        results = map_in_workers(
            _score_group, workers, repeat(model), repeat(manifest), groups, repeat(track_dims)
        )
    else:
        groups = [video_ids]
        results = [_score_group(model, manifest, video_ids, track_dims)]
    loaded, failed = {}, {}
    for group, (scored, error) in zip(groups, results):
        loaded.update((video.video_id, video) for video in scored)
        if error is not None:
            failed[group[len(scored)]] = error
    videos = []
    for vid in video_ids:
        if vid in failed:
            raise failed[vid]
        videos.append(loaded[vid])
        check_same_tracks(videos[-1], videos[0])
    return videos
