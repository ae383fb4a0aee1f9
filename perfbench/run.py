"""seqfuse pipeline benchmark.

Run from the root of a seqfuse checkout::

    python3 perfbench/run.py --workload train-small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload is a closed loop with a single client: one single-threaded
worker process calls the ``seqfuse.cli.main`` stages one after another and
repeats the pipeline while another repeat fits in ``--seconds``.  BLAS threads are
pinned to 1 in this process's environment before numpy is imported, and the
worker inherits it.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` wraps the calls into each layer and reports per-layer metrics
and the tracing overhead.  The last line of standard output is one JSON
object; a fuller record goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BLAS_THREADS = "1"
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Times are reported in reference seconds: each measured time is divided by
# the probe time (worker.probe_seconds) measured just before and after it,
# and multiplied by REFERENCE_PROBE_S.  Other tenants of a shared host slow
# it by up to 2x for minutes at a time, and the probe slows with the
# pipeline, so the ratio cancels most of that.  2.5 ms is about the probe's
# time on an idle vCPU of an Intel Xeon under Python 3.11 and numpy 2.4, so
# there reference seconds are close to wall seconds.  Wall times are
# reported beside them as *_wall_s.
REFERENCE_PROBE_S = 2.5e-3
# Set-up repeats at least this often and for at least this long; the
# reported set-up time is the median.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
SETUP_MAX_REPEATS = 40
# A run must end within 180 s; the worker is stopped well before that.
WORKER_TIMEOUT_S = 140.0

# Which end-to-end metrics each workload prints: a stage's throughput is
# shown only where that stage runs long enough to be steady.
STAGE_METRICS = {
    "train-small": ("train_frames_per_s",),
    "ingest-wide": ("align_frames_per_s", "train_frames_per_s", "infer_frames_per_s"),
    "infer-long": ("infer_frames_per_s",),
}
UNITS = {
    "setup_s": "s",
    "setup_wall_s": "s",
    "pipeline_s": "s",
    "pipeline_wall_s": "s",
    "align_frames_per_s": "frames/s",
    "train_frames_per_s": "frames/s",
    "infer_frames_per_s": "frames/s",
    "eval_ccc": "1",
    "peak_rss_mb": "MB",
    "failed_ratio": "1",
}


def _environment(root: Path) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)),
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (git unavailable)"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
    }


def _setup(name: str, seed: int, root: Path):
    """Build the workload repeatedly; returns the last build, times, digests."""
    import workloads
    from worker import digest_tree, probe_seconds

    times, probes, digests = [], [], []
    while len(times) < SETUP_MAX_REPEATS and (
        len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_SECONDS
    ):
        before = probe_seconds()
        start = time.perf_counter()
        workload = workloads.build(name, seed, root)
        times.append(time.perf_counter() - start)
        probes.append(0.5 * (before + probe_seconds()))
        digests.append({str(Path(p).relative_to(root)): d for p, d in digest_tree([root]).items()})
    return workload, times, probes, digests


def _run_worker(job: dict, work: Path) -> tuple[dict | None, str | None]:
    job_path = work / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    with open(work / "worker.log", "w", encoding="utf-8") as log:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(job_path)],
            stdout=log, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
        )
        try:
            code = proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return None, f"worker killed after {WORKER_TIMEOUT_S:.0f} s"
    if code != 0:
        tail = (work / "worker.log").read_text(encoding="utf-8", errors="replace")[-2000:]
        return None, f"worker exited {code}: {tail}"
    return json.loads(Path(job["result"]).read_text(encoding="utf-8")), None


def _stage_times(iterations: list[dict], scaled: bool = True) -> dict[str, float]:
    """Per stage: median time over the iterations, in reference or wall seconds."""
    return {
        s: statistics.median(
            it["times"][s] * REFERENCE_PROBE_S / it["probes"][s] if scaled else it["times"][s]
            for it in iterations
        )
        for s in iterations[0]["times"]
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool, root: Path) -> dict:
    """Set up, measure and check one workload of the checkout at ``root``.

    Returns the full record; every stage exit and output check is one
    operation, counted in ``attempted`` and, when it fails, in ``failed``.
    """
    import checks

    work = root / ".perfbench" / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (root / ".perfbench" / "results").mkdir(exist_ok=True)
    try:
        workload, setup_times, setup_probes, setup_digests = _setup(name, seed, work / "w")
        job = {
            "src": str(root / "src"),
            "stages": workload.stages,
            "outputs": [str(p) for p in workload.outputs],
            "seconds": seconds,
            "trace": trace,
            "result": str(work / "result.json"),
            "spans": str(root / ".perfbench" / "results" / f"{name}-seed{seed}-spans.jsonl"),
        }
        measured, worker_error = _run_worker(job, work)
        ops: list[tuple[str, str | None]] = [("worker", worker_error)]
        ops.append((
            "set-up is deterministic",
            None if all(d == setup_digests[0] for d in setup_digests) else "inputs differ",
        ))
        record = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "sizes": workload.sizes, "setup_runs_s": setup_times,
            "setup_probes_s": setup_probes,
        }
        if measured is not None:
            iterations = measured["iterations"]
            for i, it in enumerate(iterations):
                for stage, code in it["codes"].items():
                    ops.append((f"iteration {i} {stage} exit", None if code == 0 else f"exit {code}"))
            first = iterations[0]["digests"]
            ops.append((
                "outputs identical in every iteration",
                None if all(it["digests"] == first for it in iterations) else "digests differ",
            ))
            ops += checks.run_checks(workload, workload.root / "run")
            record["digests"] = {
                str(Path(p).relative_to(workload.root)): d
                for p, d in iterations[-1]["digests"].items()
                if p.endswith((".sqf", ".json")) or "/preds/" in p
            }
            if workload.name == "infer-long":
                ckpt = workload.root / "ckpt" / "checkpoint.sqf"
                record["digests"]["ckpt/checkpoint.sqf"] = setup_digests[-1]["ckpt/checkpoint.sqf"]
                record["checkpoint_bytes"] = ckpt.stat().st_size
            record["iterations"] = [
                {key: it[key] for key in ("traced", "times", "probes")}
                for it in iterations
            ]
            record["peak_rss_kb"] = measured["peak_rss_kb"]
            record["layers"] = measured.get("layers")
            record["absent"] = measured.get("absent", [])
            record["metrics"] = _end_to_end(
                workload, iterations, measured, setup_times, setup_probes
            )
            if trace:
                traced = sum(_stage_times([it for it in iterations if it["traced"]]).values())
                record["layers"]["trace.pipeline_s"] = traced
                record["layers"]["trace.overhead_s"] = traced - record["metrics"]["pipeline_s"]
        record["operations"] = [{"check": c, "failure": f} for c, f in ops]
        record["attempted"] = len(ops)
        record["failed"] = sum(1 for _, f in ops if f is not None)
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _end_to_end(workload, iterations, measured, setup_times, setup_probes) -> dict:
    untraced = [it for it in iterations if not it["traced"]]
    stage = _stage_times(untraced)
    metrics = {
        "setup_s": statistics.median(
            t * REFERENCE_PROBE_S / p for t, p in zip(setup_times, setup_probes)
        ),
        "setup_wall_s": statistics.median(setup_times),
        "pipeline_s": sum(stage.values()),
        "pipeline_wall_s": sum(_stage_times(untraced, scaled=False).values()),
        "peak_rss_mb": measured["peak_rss_kb"] / 1024.0,
    }
    try:
        report = json.loads((workload.root / "run" / "report.json").read_text(encoding="utf-8"))
        metrics["eval_ccc"] = report["concatenated_ccc"]
    except (OSError, ValueError, KeyError):
        pass  # the report check has already counted the failure
    if "align" in stage:
        metrics["align_frames_per_s"] = sum(workload.frames.values()) / stage["align"]
    if "train" in stage:
        metrics["train_frames_per_s"] = workload.train_frames * workload.epochs / stage["train"]
    metrics["infer_frames_per_s"] = (
        2 * workload.scored_frames / (stage["evaluate"] + stage["predict"])
    )
    return metrics


def _benchmark_spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _report(record: dict, spec: dict) -> dict:
    """Print the human-readable lines; return the metrics for the JSON line."""
    name = record["workload"]
    out: dict = {}
    failed_ratio = record["failed"] / record["attempted"]
    if record["trace"]:
        layers = record.get("layers") or {}
        for entry in spec["per_layer"]:
            out[entry["name"]] = {"value": layers.get(entry["name"], 0.0), "unit": entry["unit"]}
        for absent in record.get("absent", []):
            print(f"{name}: traced name absent from seqfuse: {absent}")
        for key in ("trace.overhead_s", "nn.self_share", "featureio.self_share"):
            if key in out:
                print(f"{name}: {key} = {out[key]['value']:.6g} {out[key]['unit']}")
        return out
    metrics = record.get("metrics", {})
    n = sum(1 for it in record.get("iterations", []) if not it["traced"])
    shown = (
        "setup_s", "setup_wall_s", "pipeline_s", "pipeline_wall_s",
        *STAGE_METRICS[name], "eval_ccc", "peak_rss_mb",
    )
    print(f"{name}: {n} pipeline iterations; stage times are medians, in reference "
          f"seconds (probe scaled to {REFERENCE_PROBE_S * 1e3:g} ms) except *_wall_s")
    for key in shown:
        if key in metrics:
            print(f"{name}: {key} = {metrics[key]:.6g} {UNITS[key]}")
    print(f"{name}: failed_ratio = {failed_ratio:.6g} {UNITS['failed_ratio']} "
          f"({record['failed']} failed of {record['attempted']} attempted)")
    for entry in spec["end_to_end"]:
        if entry["name"] in metrics:
            out[entry["name"]] = {"value": metrics[entry["name"]], "unit": entry["unit"]}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "seqfuse" / "__init__.py").is_file():
        print("error: run from the root of a seqfuse checkout (no src/seqfuse here)",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(root / "src"), str(HERE)]
    import workloads

    spec = _benchmark_spec()
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    if any(n not in workloads.NAMES for n in names):
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)} or all")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    results_dir = root / ".perfbench" / "results"
    env = _environment(root)
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        record = run_workload(name, args.seed, seconds, bool(args.trace), root)
        record["environment"] = env
        print(f"{name}: sizes " + ", ".join(f"{k}={v}" for k, v in record["sizes"].items()))
        for op in record["operations"]:
            if op["failure"] is not None:
                print(f"{name}: FAILED {op['check']}: {op['failure']}")
        metrics = _report(record, spec)
        path = results_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        summary["attempted"] += record["attempted"]
        summary["failed"] += record["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        summary["metrics"].update({prefix + k: v for k, v in metrics.items()})
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary, sort_keys=False))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
