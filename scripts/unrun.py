#!/usr/bin/env python3
"""List the statements of ``src/boxball`` that the tier-1 tests never run.

    python3 scripts/unrun.py

Runs the tier-1 suite in this process under ``sys.settrace``, recording
the lines executed in ``src/boxball``.  A statement is any statement but
a def, class or import header and a docstring; it counts as run when its
first line was executed.  Prints how many statements were checked, then
each unrun one as ``module:line``.  Exits 1 if the tests fail, if no
statement was found, or if a statement did not run other than the two
entry points that run only under ``python -m``: the ``sys.exit`` call of
``__main__.py`` and the body of an ``if __name__ == "__main__":`` block.
"""

import ast
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "boxball"
HEADERS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def is_main_guard(node: ast.stmt) -> bool:
    """``if __name__ == "__main__":``"""
    return isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"


def is_sys_exit(node: ast.stmt) -> bool:
    """A ``sys.exit(...)`` call statement."""
    call = node.value if isinstance(node, ast.Expr) else None
    return isinstance(call, ast.Call) and ast.unparse(call.func) == "sys.exit"


def statements(path: Path) -> dict[int, bool]:
    """First line of each statement of a module, mapped to whether it is an entry point."""
    tree = ast.parse(path.read_text())
    entry = {id(node) for node in tree.body if path.name == "__main__.py" and is_sys_exit(node)}
    for guard in filter(is_main_guard, tree.body):
        entry.update(id(node) for node in ast.walk(guard) if node is not guard)
    lines: dict[int, bool] = {}
    for parent in ast.walk(tree):
        for node in ast.iter_child_nodes(parent):
            if isinstance(node, ast.stmt) and not isinstance(node, HEADERS) and not is_docstring(node, parent):
                lines[node.lineno] = id(node) in entry
    return lines


def main() -> int:
    files = {str(path): path.name for path in sorted(PACKAGE.glob("*.py"))}
    seen: dict[str, set[int]] = {name: set() for name in files.values()}

    def local(frame, event, arg):
        if event == "line":
            seen[files[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    os.chdir(ROOT)
    sys.settrace(tracer)
    try:
        failed = pytest.main(["-q", "-p", "no:cacheprovider", "tests"]) != 0
    finally:
        sys.settrace(None)

    checked = 0
    unexpected = 0
    for name in files.values():
        for line, entry in sorted(statements(PACKAGE / name).items()):
            checked += 1
            if line not in seen[name]:
                unexpected += not entry
                print(f"{name}:{line}" + (" (entry point, runs only under python -m)" if entry else ""))
    print(f"{checked} statements checked, {unexpected} unrun outside the entry points")
    return int(failed or checked == 0 or unexpected > 0)


if __name__ == "__main__":
    sys.exit(main())
