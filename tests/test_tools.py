"""tools/ci.py runs the steps that the CI workflow names, in its order."""

import importlib.util
import os
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_ci():
    spec = importlib.util.spec_from_file_location("ci", ROOT / "tools" / "ci.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_workflow_runs_each_ci_step_once_in_order():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    runs = re.findall(r"^\s+run: (.*)$", workflow, re.MULTILINE)
    steps = [name for name, _, _ in load_ci().STEPS]
    assert runs == ['pip install -e ".[test]"'] + [f"python tools/ci.py {name}" for name in steps]


def test_unknown_step_exits_2_and_runs_nothing(capsys, monkeypatch):
    ci = load_ci()
    monkeypatch.setattr(ci.subprocess, "run", lambda *a, **k: 1 / 0)
    assert ci.main(["tier1", "lint"]) == 2
    assert capsys.readouterr().err == (
        "unknown step: lint (steps: tier1, tier1-unpinned, smoke, trace-smoke, code-lines)\n")


def test_unpinned_step_unsets_the_blas_thread_count(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    ci = load_ci()
    envs = {name: ci.step_env(changes) for name, changes, _ in ci.STEPS}
    assert "OPENBLAS_NUM_THREADS" not in envs["tier1-unpinned"]
    assert {envs[name]["OPENBLAS_NUM_THREADS"] for name in envs if name != "tier1-unpinned"} == {"1"}
    assert envs["tier1"]["PYTHONPATH"].split(os.pathsep)[0] == str(ROOT / "src")
