#!/usr/bin/env python3
"""Print the code lines of each module of src/dantzig_adm and their total.

A code line is a line that is not blank, not a full-line comment and not
part of a docstring (the leading string of a module, class or function).

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


def code_lines(path: Path) -> int:
    text = path.read_text()
    skip = docstring_lines(ast.parse(text))
    return sum(
        1
        for number, line in enumerate(text.splitlines(), start=1)
        if number not in skip and line.strip() and not line.lstrip().startswith("#")
    )


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    counts = {path.name: code_lines(path) for path in sorted(package.glob("*.py"))}
    for name, count in counts.items():
        print(f"{name:16s} {count:5d}")
    print(f"{'total':16s} {sum(counts.values()):5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
