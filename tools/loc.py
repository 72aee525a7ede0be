"""Line counts of the ``fracspec`` package, per module and in total.

Prints, for each ``src/fracspec/*.py`` module, its total lines and its
code-only lines: the lines that hold a Python token, less the lines of
docstrings. Blank lines, comment-only lines and docstrings count in the
total only. A docstring is a string literal that stands alone as the first
statement of a module, class or function.

Usage: ``python3 tools/loc.py [package_dir]`` (default: ``src/fracspec``
beside this script's parent).
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

#: tokens that hold no code: layout, comments and the file's bounds
NON_CODE = {tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """``(total, code_only)`` lines of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NON_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def main(argv: list) -> int:
    pkg = argv[1] if len(argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "fracspec")
    rows = []
    for name in sorted(f for f in os.listdir(pkg) if f.endswith(".py")):
        with open(os.path.join(pkg, name)) as fh:
            rows.append((name, *count(fh.read())))
    width = max(len(name) for name, *_ in rows)
    print(f"{'module'.ljust(width)}  {'total':>6}  {'code':>6}")
    for name, total, code in rows:
        print(f"{name.ljust(width)}  {total:>6,}  {code:>6,}")
    print(f"{'src/fracspec'.ljust(width)}  {sum(r[1] for r in rows):>6,}  "
          f"{sum(r[2] for r in rows):>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
