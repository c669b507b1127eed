"""Count the code lines of each module in a package directory.

    python3 tools/loc.py [DIR]

DIR defaults to this repository's ``src/chaos01``.  A code line is one that
is not blank, not only a comment and not part of a docstring: a line counts
when a token other than a comment or a line break lies on it, every line of
a multi-line string included, except a docstring's.  A docstring is a string
statement that opens the body of a module, class or function.  The command
prints one line per module, ``<count> <name>``, in name order, then
``<total> total``.  It uses only the standard library.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of code lines in the Python ``source``."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docstrings)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dir", type=Path, nargs="?",
                        default=Path(__file__).resolve().parent.parent / "src" / "chaos01",
                        help="package directory [default: src/chaos01]")
    args = parser.parse_args(argv)
    modules = sorted(args.dir.glob("*.py"))
    if not modules:
        parser.error(f"{args.dir} has no .py files")
    counts = {path.name: code_lines(path.read_text(encoding="utf-8")) for path in modules}
    for name, count in counts.items():
        print(f"{count:6d} {name}")
    print(f"{sum(counts.values()):6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
