"""Repeat the benchmark over several seeds and record each metric's spread.

Run from the repository root::

    python3 perfbench/baseline.py --label seed

For every workload in ``BENCHMARK.json`` it runs ``perfbench/run.py`` once
per seed 1 to 10, then once more with ``--trace 1`` at seed 1.  It writes
``perfbench/baseline/<label>.json`` with, for each end-to-end metric, the
ten values, their median, their quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
distance between the quartiles as a share of the median.  Beside them it
keeps the traced run's per-layer metrics, which include each layer's share
of self time and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUNS = 10


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def run(name: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run; returns its JSON line and its full record."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    path = Path.cwd() / ".perfbench" / "results" / f"{name}-seed{seed}-trace{trace}.json"
    print(f"{name} seed {seed} trace {trace}: exit {proc.returncode}, "
          f"{last['failed']} of {last['attempted']} failed", flush=True)
    return last, json.loads(path.read_text(encoding="utf-8"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = {"label": args.label, "runs": RUNS, "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        records = [run(name, seed, 0)[1] for seed in range(1, RUNS + 1)]
        metrics = {
            key: summarize([r["metrics"][key] for r in records])
            for key in records[0]["metrics"]
        }
        metrics["failed_ratio"] = summarize(
            [r["failed"] / r["attempted"] for r in records]
        )
        traced, _ = run(name, 1, 1)
        out["workloads"][name] = {
            "sizes": records[0]["sizes"],
            "environment": records[0]["environment"],
            "digests_seed1": records[0]["digests"],
            "attempted": [r["attempted"] for r in records],
            "metrics": metrics,
            "traced_seed1": {
                "failed": traced["failed"],
                "attempted": traced["attempted"],
                "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            },
        }
    dest = HERE / "baseline" / f"{args.label}.json"
    dest.parent.mkdir(exist_ok=True)
    dest.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for name, data in out["workloads"].items():
        for key, stats in data["metrics"].items():
            print(f"{name:12s} {key:20s} median {stats['median']:.6g}  spread {stats['spread']:.4f}")
        layers = data["traced_seed1"]["per_layer"]
        shares = {k: v for k, v in layers.items() if k.endswith(".self_share")}
        print(f"{name:12s} traced: " + ", ".join(f"{k} {v:.3f}" for k, v in shares.items())
              + f", trace.overhead_s {layers.get('trace.overhead_s', 0.0):.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
