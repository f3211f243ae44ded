"""Print the code lines of Python files: lines that hold code, not counting
docstrings, comments or blank lines.

A line counts when it holds a token that is not a comment and lies outside
every docstring (the string that opens a module, class or function body).
So a statement spread over three lines counts three, and a line with code
and a trailing comment counts once. Directories are searched for ``*.py``
files; each file's count is printed, then the total of all of them. With
no path, the package's source directory src/lakempc is counted:

    python3 tools/code_lines.py
    python3 tools/code_lines.py src/lakempc/ddp.py tests/helpers.py
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lakempc"

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of source that hold code."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "paths", nargs="*", type=Path, default=[PACKAGE],
        help="files or directories (default: src/lakempc)",
    )
    args = parser.parse_args(argv)
    files = []
    for path in args.paths:
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    total = 0
    for path in files:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
