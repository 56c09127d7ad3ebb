"""Count the lines of Python modules by kind: code, docstring, comment-only and blank.

Usage: python tools/src_lines.py [PATH ...]   (default: src)

Each PATH is a .py file or a directory searched for them.  Docstrings are
the module, class and function docstrings that ``ast`` finds; every line they
span counts as docstring, blank ones inside included.  Of the other lines, a
blank one counts as blank, one whose first non-space character is ``#`` as
comment, and the rest as code.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based line numbers spanned by the docstrings in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> dict[str, int]:
    """Lines of one module by kind, with their sum under "all"."""
    text = path.read_text()
    docs = docstring_lines(ast.parse(text, str(path)))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if number in docs:
            counts["docstring"] += 1
        elif not stripped:
            counts["blank"] += 1
        elif stripped.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    counts["all"] = sum(counts.values())
    return counts


def main(argv: list[str]) -> int:
    files = []
    for arg in argv or ["src"]:
        path = Path(arg)
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    columns = ("all",) + KINDS
    width = max([len("total")] + [len(str(f)) for f in files])
    print(f"{'module':<{width}}" + "".join(f"{c:>11}" for c in columns))
    total = dict.fromkeys(columns, 0)
    for file in files:
        counts = count(file)
        for c in columns:
            total[c] += counts[c]
        print(f"{str(file):<{width}}" + "".join(f"{counts[c]:>11}" for c in columns))
    print(f"{'total':<{width}}" + "".join(f"{total[c]:>11}" for c in columns))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
