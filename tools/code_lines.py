"""Count the code lines of the seqfuse package, module by module.

A code line is a line that holds a token other than a comment and is not
part of a docstring or of an import statement. Blank lines, comment lines
and docstring lines are left out of both counts; import lines are counted
in a column of their own. Run from anywhere:

    python3 tools/code_lines.py            # src/seqfuse/*.py
    python3 tools/code_lines.py a.py b.py  # the given files

It prints one row per module, then the totals.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "seqfuse"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def spans(nodes) -> set[int]:
    """Every line that the given AST nodes cover."""
    return {line for node in nodes for line in range(node.lineno, node.end_lineno + 1)}


def count(text: str) -> tuple[int, int]:
    """(code lines, import lines) of one module's source."""
    tree = ast.parse(text)
    tokens = tokenize.generate_tokens(io.StringIO(text).readline)
    lines = {line for tok in tokens if tok.type not in NOT_CODE
             for line in range(tok.start[0], tok.end[0] + 1)}
    scopes = [tree] + [node for node in ast.walk(tree) if isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    docstrings = spans(scope.body[0] for scope in scopes if scope.body
                       and isinstance(scope.body[0], ast.Expr)
                       and isinstance(scope.body[0].value, ast.Constant)
                       and isinstance(scope.body[0].value.value, str))
    imports = spans(node for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom)))
    lines -= docstrings
    return len(lines - imports), len(lines & imports)


def main(argv: list[str]) -> int:
    paths = [Path(p) for p in argv] or sorted(PACKAGE.glob("*.py"))
    rows = [(path.name, *count(path.read_text(encoding="utf-8"))) for path in paths]
    width = max(len(name) for name, _, _ in rows + [("total", 0, 0)])
    print(f"{'module':<{width}}  {'code':>5}  {'import':>6}")
    for name, code, imports in rows:
        print(f"{name:<{width}}  {code:>5}  {imports:>6}")
    print(f"{'total':<{width}}  {sum(r[1] for r in rows):>5}  {sum(r[2] for r in rows):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
