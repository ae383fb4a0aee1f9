"""The benchmark's traced path: every stage runs, and every traced name exists.

``perfbench`` times the CLI stages under a tracer that wraps seqfuse's
functions by name and reads a few attributes of their arguments and results.
This runs one ``train-small`` iteration that way, so a change that renames a
traced function or an attribute the tracer reads fails here, in tier 1.
"""

from __future__ import annotations

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import tracer  # noqa: E402
import workloads  # noqa: E402
from seqfuse import cli  # noqa: E402


def test_train_small_stages_run_under_the_tracer(tmp_path):
    workload = workloads.build("train-small", 5, tmp_path / "w")
    t = tracer.Tracer()
    t.install()
    try:
        codes = {}
        for stage, argv in workload.stages:
            codes[stage] = cli.main(argv)
    finally:
        t.uninstall()
    assert codes == {"align": 0, "train": 0, "evaluate": 0, "predict": 0}
    assert t.absent == []
    layers = tracer.layer_metrics(t.spans, [(0, len(t.spans))])
    assert layers["featureio.fuse.calls"] > 0
    assert layers["featureio.parse_feature_csv.rows"] > 0
    assert layers["training.chunk.chunks"] > 0
    # The per-layer metrics that a training speed claim cites.
    assert layers["nn.forward.train.steps"] > 0
    assert layers["nn.backward.steps"] > 0
    assert layers["training.adam_step.calls"] > 0
