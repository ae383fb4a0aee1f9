"""Concordance Correlation Coefficient and the evaluation harness."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    DegenerateInputError,
    EmptyDatasetError,
    LengthMismatchError,
    TargetMissingError,
)
from .nn import Model, predict
from .util import fmt_float

if TYPE_CHECKING:
    from .featureio import LabeledSequence

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


def evaluate(model: Model, dataset: list["LabeledSequence"], target: str) -> CccReport:
    """Score a model on sequences, dropout disabled.

    The headline score is CCC over all predictions/labels concatenated in
    dataset order; per-video scores are computed independently. A video with
    fewer than 2 frames, or whose per-video CCC is degenerate, is logged and
    omitted from ``per_video`` but still contributes to the concatenated
    score and to ``n_frames_total``.
    """
    if not dataset:
        raise EmptyDatasetError("evaluate needs at least one sequence")
    for seq in dataset:
        if target not in seq.labels:
            raise TargetMissingError(f"video {seq.video_id!r} lacks target {target!r}")
    preds_all = predict(model, [seq.data for seq in dataset])
    labels_all = [seq.labels[target] for seq in dataset]
    per_video: dict[str, float] = {}
    for seq, preds, labels in zip(dataset, preds_all, labels_all):
        if len(labels) < 2:
            logger.warning(
                "video %r: per-video CCC undefined (needs 2 frames, has %d)",
                seq.video_id,
                len(labels),
            )
            continue
        try:
            per_video[seq.video_id] = ccc(preds, labels)
        except DegenerateInputError:
            logger.warning(
                "video %r: per-video CCC undefined (constant equal sequences)",
                seq.video_id,
            )
    all_labels = np.concatenate(labels_all)
    concatenated = ccc(np.concatenate(preds_all), all_labels)
    return CccReport(target, concatenated, per_video, len(all_labels))
