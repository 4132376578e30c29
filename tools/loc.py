"""Count the lines of a Python package, and its code lines.

    python3 tools/loc.py [DIR]

DIR defaults to ``src/pglab``; every ``*.py`` file under it is counted.  It
prints one line: ``DIR: L lines, C code lines``.  A code line holds a token
that is not a comment and lies outside every docstring, so blank lines,
comment lines and the lines of module, class and function docstrings are
left out.  Docstrings are found with ``ast``, comments with ``tokenize``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by the docstrings of `tree`."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(lines, code lines) of one file's source."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def count_tree(root: Path) -> tuple[int, int]:
    """(lines, code lines) summed over every ``*.py`` file under `root`."""
    totals = [count(path.read_text(encoding="utf-8")) for path in sorted(root.rglob("*.py"))]
    return sum(t[0] for t in totals), sum(t[1] for t in totals)


def main(argv: list[str] | None = None) -> None:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0] if args else "src/pglab")
    lines, code = count_tree(root)
    print(f"{root}: {lines} lines, {code} code lines")


if __name__ == "__main__":
    main()
