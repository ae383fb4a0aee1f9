"""Closed-loop stage runner: one process, one client, stages one after another.

Usage: ``python3 worker.py JOB.json``.  The job names the repository's
``src`` directory, the ``seqfuse`` CLI stages of one pipeline iteration, the
stage outputs, the measuring time and whether to trace.  The worker repeats
the iteration while another one fits in the time, then writes per-iteration
stage times, the probe time around each stage, exit codes, output digests
and its peak resident memory to the job's result file.  When tracing, it
alternates untraced and traced iterations, so one run also gives the
tracing overhead, and writes the spans as JSON lines.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

# The probe's work has the shape of the pipeline's two hot paths: small
# matrix-vector steps, as in the recurrent cells, and parsing and formatting
# floats, as in the CSV reader and writer.  A host that slows one slows the
# probe alike, which a pure-Python loop alone does not.
_PROBE_W = np.random.default_rng(0).standard_normal((32, 32)) * 0.1
_PROBE_TEXT = [repr(float(x)) for x in np.random.default_rng(1).standard_normal(3000)]


def digest_tree(paths: list[Path]) -> dict[str, str]:
    """SHA-256 of every file under ``paths``, keyed by path."""
    digests = {}
    for top in paths:
        files = sorted(p for p in top.rglob("*") if p.is_file()) if top.is_dir() else [top]
        for path in files:
            if path.is_file():
                digests[str(path)] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def probe_seconds() -> float:
    """Median of five timings of a fixed piece of work of about 2.5 ms."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        x = np.ones(32)
        for _ in range(300):
            x = np.tanh(_PROBE_W @ x + 0.1)
        ",".join(f"{float(t):.6g}" for t in _PROBE_TEXT)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _run_stage(main, argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments by exiting
        return exc.code if isinstance(exc.code, int) else 1


def run(job: dict) -> dict:
    sys.path.insert(0, job["src"])
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    from seqfuse import cli

    from tracer import Tracer, layer_metrics

    tracer = Tracer() if job["trace"] else None
    outputs = [Path(p) for p in job["outputs"]]
    iterations, traced_ranges = [], []
    began = time.perf_counter()
    while True:
        traced = tracer is not None and len(iterations) % 2 == 1
        for path in outputs:
            shutil.rmtree(path, ignore_errors=True)
        if traced:
            tracer.install()
            first_span = len(tracer.spans)
        times, codes, probes = {}, {}, {}
        for stage, argv in job["stages"]:
            before = probe_seconds()
            start = time.perf_counter()
            codes[stage] = _run_stage(cli.main, argv)
            times[stage] = time.perf_counter() - start
            probes[stage] = 0.5 * (before + probe_seconds())
        if traced:
            tracer.uninstall()
            traced_ranges.append((first_span, len(tracer.spans)))
        iterations.append(
            {
                "traced": traced, "times": times, "probes": probes, "codes": codes,
                "digests": digest_tree(outputs),
            }
        )
        # Stop before an iteration that would run past the measuring time.
        now = time.perf_counter()
        if now + (now - began) / len(iterations) > began + job["seconds"] and (
            tracer is None or traced_ranges
        ):
            break
    result = {
        "iterations": iterations,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer.spans, traced_ranges)
        result["absent"] = tracer.absent
        with open(job["spans"], "w", encoding="utf-8") as fh:
            for name, start, end, parent, extras in tracer.spans:
                fh.write(json.dumps([name, start, end, parent, extras]) + "\n")
    return result


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result = run(job)
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
