"""seqfuse is numpy-only: it imports numpy, the standard library and itself.

The worker-pool modules are imported only inside the functions that start a
pool: at module level they add about 2 MB to every process that imports the
package, and only large inputs use them.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "seqfuse"
LAZY = {"multiprocessing", "concurrent"}


def imported_names(node):
    """Top-level package names that an import statement brings in; [] for other nodes."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module.split(".")[0]]
    return []


def modules():
    found = sorted(PACKAGE.glob("*.py"))
    assert len(found) >= 8
    return [(m.name, ast.parse(m.read_text(encoding="utf-8"), str(m))) for m in found]


def test_every_import_is_relative_numpy_or_stdlib():
    allowed = sys.stdlib_module_names | {"numpy"}
    outside = [
        f"{name}: {imported}"
        for name, tree in modules()
        for node in ast.walk(tree)
        for imported in imported_names(node)
        if imported not in allowed
    ]
    assert outside == []


def test_pool_modules_are_imported_only_inside_functions():
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

    def eager(node):
        """Imports of LAZY modules under ``node`` that run outside any function body."""
        found = [f"line {node.lineno}: {n}" for n in imported_names(node) if n in LAZY]
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, functions):
                found += eager(child)
        return found

    hoisted = [f"{name} {found}" for name, tree in modules() for found in eager(tree)]
    assert hoisted == []
    # The grouped loader does import them, so the check above has something to find.
    pool_helper = dict(modules())["featureio.py"]
    assert any(n in LAZY for node in ast.walk(pool_helper) for n in imported_names(node))
