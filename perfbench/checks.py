"""Output checks.  Each check is one operation toward ``failed_ratio``.

The aligned features are compared with the benchmark's own vectorised
recomputation of the frame means from the token spans it generated:
bit-exact for frame-aligned input, and for token-rate input within 1e-12 of
the largest magnitude in the frame's row.  Predictions must cover every
labelled frame of the scored partition with finite values in [-1, 1], and
the evaluation report must count exactly the labelled frames.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from workloads import FRAME_MS, TARGET, Workload

RELATIVE_TOLERANCE = 1e-12


def frame_means(starts, ends, vectors, n_frames: int) -> np.ndarray:
    """Unweighted mean of the tokens overlapping each frame; zero if none."""
    lo = np.maximum(starts // FRAME_MS, 0)
    hi = np.minimum((ends - 1) // FRAME_MS, n_frames - 1)
    spans = np.maximum(hi - lo + 1, 0)
    token = np.repeat(np.arange(len(starts)), spans)
    offset = np.arange(len(token)) - np.repeat(np.cumsum(spans) - spans, spans)
    frame = lo[token] + offset
    sums = np.zeros((n_frames, vectors.shape[1]))
    np.add.at(sums, frame, vectors[token])
    counts = np.bincount(frame, minlength=n_frames)
    covered = counts > 0
    sums[covered] /= counts[covered, None]
    return sums


def read_csv_matrix(path: Path, header: str | None = None) -> np.ndarray:
    """Numeric body of a CSV file with equal-length rows."""
    text = path.read_text(encoding="utf-8")
    first, _, body = text.partition("\n")
    if header is not None and first != header:
        raise ValueError(f"header {first!r}, expected {header!r}")
    rows = body.splitlines()
    width = first.count(",") + 1
    cells = ",".join(rows).split(",") if rows else []
    if len(cells) != len(rows) * width:
        raise ValueError("ragged rows")
    return np.array(cells, dtype=np.float64).reshape(len(rows), width)


def _check_aligned(workload: Workload, vid: str, track: str) -> str | None:
    starts, ends, vectors = workload.tokens[(vid, track)]
    n = workload.frames[vid]
    got = read_csv_matrix(workload.aligned_dir / "features" / f"{vid}_{track}.csv")
    grid = np.arange(n) * FRAME_MS
    if got.shape != (n, vectors.shape[1] + 2):
        return f"shape {got.shape}, expected {(n, vectors.shape[1] + 2)}"
    if not (np.array_equal(got[:, 0], grid) and np.array_equal(got[:, 1], grid + FRAME_MS)):
        return "rows are not on the frame grid"
    expected = frame_means(starts, ends, vectors, n)
    if workload.frame_aligned:
        return None if np.array_equal(got[:, 2:], expected) else "not bit-exact"
    scale = np.abs(expected).max(axis=1, keepdims=True)
    error = np.abs(got[:, 2:] - expected)
    worst = float((error / np.where(scale > 0, scale, 1.0)).max())
    return None if worst <= RELATIVE_TOLERANCE else f"relative error {worst:.3g}"


def _check_predictions(workload: Workload, preds: Path, vid: str) -> str | None:
    values = read_csv_matrix(preds / f"{vid}_{TARGET}.csv", "frame_ms,prediction")
    n = workload.frames[vid]
    if values.shape != (n, 2):
        return f"{values.shape[0]} rows for {n} labelled frames"
    if not np.array_equal(values[:, 0], np.arange(n) * FRAME_MS):
        return "frame_ms column is not on the frame grid"
    if not np.all(np.isfinite(values[:, 1])):
        return "non-finite prediction"
    if np.any(np.abs(values[:, 1]) > 1.0):
        return "prediction outside [-1, 1]"
    return None


def _check_report(workload: Workload, report: Path) -> str | None:
    data = json.loads(report.read_text(encoding="utf-8"))
    if data["n_frames_total"] != workload.scored_frames:
        return f"n_frames_total {data['n_frames_total']} != {workload.scored_frames} labelled"
    score = data["concatenated_ccc"]
    if not (isinstance(score, float) and math.isfinite(score) and -1.0 <= score <= 1.0):
        return f"concatenated_ccc {score!r} is not a CCC"
    return None


def _check_history(workload: Workload, history: Path) -> str | None:
    epochs = len(history.read_text(encoding="utf-8").splitlines()) - 1
    return None if epochs == workload.epochs else f"{epochs} epochs run, {workload.epochs} set"


def _guard(check, *args) -> str | None:
    try:
        return check(*args)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"{type(exc).__name__}: {exc}"


def run_checks(workload: Workload, run_dir: Path) -> list[tuple[str, str | None]]:
    """Check the outputs in ``run_dir``; returns (check name, failure or None)."""
    results = []
    if workload.aligned_dir is not None:
        for vid, track in sorted(workload.tokens):
            failure = _guard(_check_aligned, workload, vid, track)
            results.append((f"aligned {vid}/{track}", failure))
    scored = [v for v, p in workload.partitions.items() if p == workload.partition]
    for vid in scored:
        failure = _guard(_check_predictions, workload, run_dir / "preds", vid)
        results.append((f"predictions {vid}", failure))
    results.append(("report", _guard(_check_report, workload, run_dir / "report.json")))
    if workload.epochs:
        results.append(("history", _guard(_check_history, workload, run_dir / "history.csv")))
    return results
