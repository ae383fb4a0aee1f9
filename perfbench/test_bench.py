"""Tests of the benchmark itself: corrupted outputs must count as failures.

Run from the repository root::

    python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from seqfuse import cli  # noqa: E402


def _failures(workload):
    return [(name, f) for name, f in checks.run_checks(workload, workload.root / "run") if f]


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    workload = workloads.build("train-small", 5, tmp_path_factory.mktemp("small") / "w")
    for _, argv in workload.stages:
        assert cli.main(argv) == 0
    return workload


@pytest.fixture
def restore():
    """Restores every file registered with it after the test."""
    saved = {}
    yield lambda path: saved.setdefault(path, path.read_bytes())
    for path, data in saved.items():
        path.write_bytes(data)


def _alter_cell(path: Path, row: int, col: int, fn) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(fn(float(cells[col])))
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_clean_outputs_pass(small):
    assert _failures(small) == []


def test_frame_means_match_alignment_rule():
    starts = np.array([0, 100, 240, 600])
    ends = np.array([250, 300, 260, 900])
    vectors = np.array([[1.0], [3.0], [5.0], [7.0]])
    # Frame 0 sees tokens 0-2, frame 1 tokens 1-2, frame 2 token 3; token 3
    # reaches past the 3-frame horizon.
    expected = np.array([[3.0], [4.0], [7.0]])
    assert np.array_equal(checks.frame_means(starts, ends, vectors, 3), expected)


def test_one_altered_aligned_value_fails(small, restore):
    path = small.aligned_dir / "features" / "video003_track1.csv"
    restore(path)
    _alter_cell(path, 7, 4, lambda v: np.nextafter(v, np.inf))
    assert [name for name, _ in _failures(small)] == ["aligned video003/track1"]


def test_missing_prediction_file_fails(small, restore):
    path = small.root / "run" / "preds" / "video009_arousal.csv"
    restore(path)
    path.unlink()
    assert [name for name, _ in _failures(small)] == ["predictions video009"]


def test_prediction_out_of_range_fails(small, restore):
    path = small.root / "run" / "preds" / "video008_arousal.csv"
    restore(path)
    _alter_cell(path, 3, 1, lambda v: 1.5)
    assert [name for name, _ in _failures(small)] == ["predictions video008"]


def test_wrong_frame_count_in_report_fails(small, restore):
    path = small.root / "run" / "report.json"
    restore(path)
    report = json.loads(path.read_text(encoding="utf-8"))
    report["n_frames_total"] -= 1
    path.write_text(json.dumps(report), encoding="utf-8")
    assert [name for name, _ in _failures(small)] == ["report"]


def test_token_rate_alignment_tolerance(tmp_path, restore):
    wide = workloads.build("ingest-wide", 5, tmp_path / "w")
    align_stage = dict(wide.stages)["align"]
    assert cli.main(align_stage) == 0
    aligned = [(name, f) for name, f in checks.run_checks(wide, wide.root / "run")
               if name.startswith("aligned")]
    assert len(aligned) == 24 and all(f is None for _, f in aligned)
    path = wide.aligned_dir / "features" / "video002_text.csv"
    restore(path)
    _alter_cell(path, 10, 5, lambda v: v * (1 + 1e-9) + 1e-9)
    failed = [n for n, f in checks.run_checks(wide, wide.root / "run") if f and n.startswith("aligned")]
    assert failed == ["aligned video002/text"]


def test_failed_check_fails_the_run(tmp_path, monkeypatch):
    """A corrupted output inside a real run is counted and makes it incorrect."""
    (tmp_path / "src").symlink_to(ROOT / "src")
    real = checks.run_checks

    def corrupting(workload, run_dir):
        (run_dir / "preds" / "video008_arousal.csv").unlink()
        return real(workload, run_dir)

    monkeypatch.setattr(checks, "run_checks", corrupting)
    record = run.run_workload("train-small", 5, 1, False, tmp_path)
    failures = [op["check"] for op in record["operations"] if op["failure"]]
    assert failures == ["predictions video008"]
    assert record["failed"] == 1 and record["attempted"] > 1


def test_removed_name_is_reported_absent(monkeypatch):
    monkeypatch.delattr(sys.modules["seqfuse.featureio"], "fuse")
    t = tracer.Tracer()
    t.install()
    try:
        assert t.absent == ["featureio.fuse"]
    finally:
        t.uninstall()


def test_self_time_excludes_child_spans():
    spans = [
        ["cli.train", 0.0, 10.0, -1, None],
        ["training.train", 2.0, 5.0, 0, None],
        ["nn.backward", 3.0, 4.0, 1, {"steps": 100}],
    ]
    layers = tracer.layer_metrics(spans, [(0, 3)])
    assert layers["cli.train.self_s"] == 7.0
    assert layers["training.train.self_s"] == 2.0
    assert layers["nn.backward.self_s"] == 1.0
    assert layers["nn.backward.us_per_step_p50"] == 1e4
    assert layers["nn.self_share"] == 0.1
