"""Code lines of each module of src/regmeans, and their total.

A line counts when it holds a token other than a comment, NL, NEWLINE,
INDENT or DEDENT (tokenize) and lies outside every module, class and
function docstring (ast).  A token that spans lines, a string, holds each
of them.  Standard library only; run from anywhere:

    python3 tools/code_lines.py [DIRECTORY]

DIRECTORY defaults to the package, src/regmeans beside this script.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The code lines of the Python source at path."""
    source = path.read_bytes()
    docstrings = _docstring_lines(ast.parse(source))
    with path.open("rb") as f:
        held = {line for tok in tokenize.tokenize(f.readline) if tok.type not in _SKIP
                for line in range(tok.start[0], tok.end[0] + 1)}
    return len(held - docstrings)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "regmeans"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
