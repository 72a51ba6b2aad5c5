#!/usr/bin/env python3
"""Count the code lines of each module of ``src/boxball``.

    python3 scripts/loc.py

A code line holds at least one token other than whitespace, a comment or
a docstring; a string that spans lines counts on every line it covers.
A docstring is a string statement that opens a module, class or
function body.  Prints one row per module, in name order, then the total.
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "boxball"
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines covered by the docstrings of a module and of every class and function in it."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    docstrings = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main() -> None:
    rows = [(path.name, code_lines(path.read_text())) for path in sorted(PACKAGE.glob("*.py"))]
    width = max(len(name) for name, _ in rows)
    print(f"{'module':<{width}}  code_lines")
    for name, count in rows:
        print(f"{name:<{width}}  {count}")
    print(f"{'total':<{width}}  {sum(count for _, count in rows)}")


if __name__ == "__main__":
    main()
