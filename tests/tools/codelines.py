#!/usr/bin/env python
"""Count code-only lines: the size metric the simplicity PRs report.

A line counts when it holds at least one token that is neither a
comment nor a docstring (so blank lines, comment lines and docstrings
are free, and every line of a multi-line expression or string literal
counts). Reformatting comments or documentation cannot move the
number; adding or removing code does.

    python tests/tools/codelines.py [ROOT]      # default: src/repro

prints one row per top-level package under ROOT and the total
(``src/repro`` read 10482 at 3c5abdf).
"""

import ast
import io
import pathlib
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
             tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef,
               ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """Physical lines of ``source`` holding a non-comment,
    non-docstring token."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.add((first.value.lineno,
                                first.value.col_offset))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE:
            continue
        if tok.type == tokenize.STRING and tok.start in docstrings:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def by_package(root: pathlib.Path) -> dict:
    """Top-level package (or module) under ``root`` -> code lines."""
    table: dict = {}
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        name = rel.parts[0] if len(rel.parts) > 1 else "(top level)"
        table[name] = table.get(name, 0) + code_lines(path.read_text())
    return table


def main(argv) -> int:
    root = pathlib.Path(argv[1] if len(argv) > 1 else "src/repro")
    table = by_package(root)
    for name, count in sorted(table.items()):
        print(f"{name:14s} {count:6d}")
    print(f"{'total':14s} {sum(table.values()):6d}  ({root})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
