"""Young tableaux and the row-insertion (bumping) algorithm.

A word is a tuple of integers of any sign.  A tableau is stored row by row,
top row first; entries weakly increase along each row and strictly
increase down each column.  ``tab`` folds a word into a tableau by
bumping letters in from the left, ``word_of`` reads the tableau back,
bottom row first, each row left to right.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import le, lt
from typing import Iterable, Iterator

Word = tuple[int, ...]
Shape = tuple[int, ...]


class InvariantError(RuntimeError):
    """An internal invariant failed: a fault in this package, not in its input."""


def as_word(letters: Iterable[int]) -> Word:
    """Normalize an iterable of letters to a Word of plain ints."""
    return tuple(map(int, letters))


@dataclass(frozen=True)
class Tableau:
    """A column-strict Young tableau; ``rows[0]`` is the top row."""

    rows: tuple[Word, ...] = ()

    def __post_init__(self) -> None:
        rows = tuple(tuple(map(int, row)) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        for r, row in enumerate(rows):
            if not row:
                raise ValueError(f"row {r + 1} is empty")
            if not all(map(le, row, row[1:])):
                raise ValueError(f"row {r + 1} is not weakly increasing")
            if r > 0:
                above = rows[r - 1]
                if len(row) > len(above):
                    raise ValueError(f"row {r + 1} is longer than row {r}")
                if not all(map(lt, above, row)):  # stops at the end of the shorter row
                    raise ValueError(f"column entries not strictly increasing into row {r + 1}")

    def __len__(self) -> int:
        return sum(len(row) for row in self.rows)

    def __iter__(self) -> Iterator[Word]:
        return iter(self.rows)

    def __str__(self) -> str:
        return render_tableau(self)


EMPTY_TABLEAU = Tableau()


def tableau(rows: Iterable[Iterable[int]]) -> Tableau:
    """Build a Tableau from any iterable of rows (validates invariants)."""
    return Tableau(tuple(tuple(row) for row in rows))


def _insert(rows: list[list[int]], x: int) -> tuple[int, int]:
    """Bump x into mutable rows; return the 1-indexed (row, column) of the new box."""
    r = 0
    while r < len(rows):
        row = rows[r]
        i = bisect_right(row, x)  # leftmost entry strictly larger than x
        if i == len(row):
            row.append(x)
            return r + 1, len(row)
        x, row[i] = row[i], x
        r += 1
    rows.append([x])
    return len(rows), 1


def row_insert(t: Tableau, x: int) -> tuple[Tableau, tuple[int, int]]:
    """Insert one letter by bumping.

    Returns the new tableau and the (row, column) of the single box that
    appeared, both 1-indexed.  The result has exactly one more box than
    ``t``.
    """
    rows = [list(row) for row in t.rows]
    pos = _insert(rows, int(x))
    return Tableau(tuple(tuple(row) for row in rows)), pos


def tab(letters: Iterable[int]) -> Tableau:
    """Insertion tableau of a word: fold row insertion over the letters."""
    rows: list[list[int]] = []
    for x in as_word(letters):
        _insert(rows, x)
    return Tableau(tuple(tuple(row) for row in rows))


def word_of(t: Tableau) -> Word:
    """Reading word of a tableau: rows from the bottom up, left to right."""
    return tuple(x for row in reversed(t.rows) for x in row)


def shape(t: Tableau) -> Shape:
    """Row lengths, top row first."""
    return tuple(len(row) for row in t.rows)


def is_tableau_word(letters: Iterable[int]) -> bool:
    """True iff the word is the reading word of its own insertion tableau."""
    word = as_word(letters)
    return word_of(tab(word)) == word


def render_tableau(t: Tableau) -> str:
    """One row per line, entries separated by single spaces, top row first."""
    return "\n".join(" ".join(str(x) for x in row) for row in t.rows)


def parse_tableau(text: str) -> Tableau:
    """Inverse of ``render_tableau``; a blank line (or EOF) terminates."""
    rows: list[tuple[int, ...]] = []
    for line in text.splitlines():
        if not line.strip():
            break
        rows.append(tuple(int(tok) for tok in line.split()))
    return Tableau(tuple(rows))
