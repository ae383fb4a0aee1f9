"""seqfuse is numpy-only: it imports numpy, the standard library and itself."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "seqfuse"


def test_every_import_is_relative_numpy_or_stdlib():
    allowed = sys.stdlib_module_names | {"numpy"}
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 8
    outside = []
    for module in modules:
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"), str(module))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{module.name}: {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert outside == []
