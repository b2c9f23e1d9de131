#!/usr/bin/env python3
"""Print the code and docstring lines of each module of src/dantzig_adm and their totals.

A code line is a line that is not blank, not a full-line comment and not
part of a docstring (the leading string of a module, class or function).
A docstring line is any line a docstring spans, blank ones included.

    python3 scripts/code_lines.py [PACKAGE_DIR]
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dantzig_adm"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that docstrings of the module, its classes and functions span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def line_counts(path: Path) -> tuple[int, int]:
    """(code lines, docstring lines) of one module."""
    text = path.read_text()
    skip = docstring_lines(ast.parse(text))
    code = sum(
        1
        for number, line in enumerate(text.splitlines(), start=1)
        if number not in skip and line.strip() and not line.lstrip().startswith("#")
    )
    return code, len(skip)


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    counts = {path.name: line_counts(path) for path in sorted(package.glob("*.py"))}
    print(f"{'module':16s} {'code':>5s} {'docstring':>9s}")
    for name, (code, docs) in counts.items():
        print(f"{name:16s} {code:5d} {docs:9d}")
    code, docs = (sum(column) for column in zip(*counts.values()))
    print(f"{'total':16s} {code:5d} {docs:9d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
