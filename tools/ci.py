"""Run the steps of the CI workflow (.github/workflows/tests.yml) in order.

    python3 tools/ci.py                    # every step, stopping at the first failure
    python3 tools/ci.py tier1 code-lines   # only the named steps, in workflow order

Each step runs from the repository root in a child process with its own
environment: the tier-1 steps put ``src`` first on ``PYTHONPATH``, every step
but ``tier1-unpinned`` runs OpenBLAS on one thread, and ``tier1-unpinned``
unsets ``OPENBLAS_NUM_THREADS`` so that OpenBLAS chooses its own count. The
workflow calls this script once per step, so a local run makes the same
commands that CI makes. The exit code is that of the first failing step, 2
for an unknown step name, else 0.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC_PATH = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]

# (name, environment changes with None for unset, command), in workflow order.
STEPS = [
    ("tier1", {"PYTHONPATH": SRC_PATH, "OPENBLAS_NUM_THREADS": "1"}, TIER1),
    ("tier1-unpinned", {"PYTHONPATH": SRC_PATH, "OPENBLAS_NUM_THREADS": None}, TIER1),
    ("smoke", {"OPENBLAS_NUM_THREADS": "1"},
     [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "1", "--seconds", "2"]),
    ("trace-smoke", {"OPENBLAS_NUM_THREADS": "1"},
     [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "1", "--seconds", "2",
      "--trace", "1"]),
    ("code-lines", {"OPENBLAS_NUM_THREADS": "1"}, [sys.executable, "tools/code_lines.py"]),
]


def step_env(changes: dict[str, str | None]) -> dict[str, str]:
    env = {**os.environ, **changes}
    return {name: value for name, value in env.items() if value is not None}


def main(argv: list[str]) -> int:
    names = [name for name, _, _ in STEPS]
    unknown = sorted(set(argv) - set(names))
    if unknown:
        print(f"unknown step: {', '.join(unknown)} (steps: {', '.join(names)})", file=sys.stderr)
        return 2
    for name, changes, command in STEPS:
        if argv and name not in argv:
            continue
        print(f"== {name}: {' '.join(command)}", flush=True)
        start = time.monotonic()
        code = subprocess.run(command, cwd=ROOT, env=step_env(changes)).returncode
        print(f"== {name}: exit {code} in {time.monotonic() - start:.1f} s", flush=True)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
