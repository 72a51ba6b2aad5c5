"""Young tableaux and the row-insertion (bumping) algorithm.

A word is a tuple of integers of any sign.  A tableau is stored row by row,
top row first; entries weakly increase along each row and strictly
increase down each column.  ``Tableau(rows)`` takes any iterable of rows
of integers, converts each entry with ``int`` and checks the order; the
private ``_int_tableau(rows)`` is the same constructor for rows whose
entries are exact ``int``s by construction, and skips only the
conversion.  Both run one order check, ``_check_rows``.  ``tab``
folds a word into a tableau by bumping its letters in from the left, and
``rsk`` records where each letter's new box ended: both run the one
private loop ``_bump``.  ``word_of`` reads the tableau back, bottom row
first, each row left to right, and ``knuth_equivalent`` decides Knuth
equivalence of two words by comparing their ``tab``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from operator import lt
from typing import Iterable, Sequence

Word = tuple[int, ...]
Shape = tuple[int, ...]


class InvariantError(RuntimeError):
    """An internal invariant failed: a fault in this package, not in its input."""


def as_word(letters: Iterable[int]) -> Word:
    """Normalize an iterable of letters to a Word of plain ints."""
    return tuple(map(int, letters))


@dataclass(frozen=True)
class Tableau:
    """A column-strict Young tableau; ``rows[0]`` is the top row.

    ``rows`` may be any iterable of iterables of integers; it is stored as
    a tuple of tuples of ints.
    """

    rows: tuple[Word, ...] = ()

    def __post_init__(self) -> None:
        rows = tuple(tuple(map(int, row)) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        _check_rows(rows)

    def __len__(self) -> int:
        return sum(len(row) for row in self.rows)


def _check_rows(rows: tuple[Word, ...]) -> None:
    """The tableau order check: nonempty rows, weakly increasing, no longer than the row above, columns strict."""
    for r, row in enumerate(rows):
        if not row:
            raise ValueError(f"row {r + 1} is empty")
        if sorted(row) != list(row):
            raise ValueError(f"row {r + 1} is not weakly increasing")
        if r > 0:
            above = rows[r - 1]
            if len(row) > len(above):
                raise ValueError(f"row {r + 1} is longer than row {r}")
            if not all(map(lt, above, row)):  # stops at the end of the shorter row
                raise ValueError(f"column entries not strictly increasing into row {r + 1}")


def _int_tableau(rows: Iterable[Sequence[int]]) -> Tableau:
    """A ``Tableau`` from rows whose entries are exact ``int``s: no conversion, the same order check."""
    t = object.__new__(Tableau)
    rows = tuple(map(tuple, rows))
    object.__setattr__(t, "rows", rows)
    _check_rows(rows)
    return t


def _bump(word: Word) -> tuple[list[list[int]], list[int]]:
    """Row-insert the letters of a word in turn, from an empty tableau.

    Returns the rows and, per letter k, the 0-indexed row ``ends[k]`` in
    which letter k's new box ended: the end of that row.
    """
    rows: list[list[int]] = []
    ends: list[int] = []
    for x in word:
        r = 0
        for row in rows:
            i = bisect_right(row, x)  # leftmost entry strictly larger than x
            if i == len(row):
                row.append(x)
                break
            x, row[i] = row[i], x
            r += 1
        else:
            rows.append([x])
        ends.append(r)
    return rows, ends


def tab(letters: Iterable[int]) -> Tableau:
    """Insertion tableau of a word: fold row insertion over the letters."""
    return _int_tableau(_bump(as_word(letters))[0])


def knuth_equivalent(a: Iterable[int], b: Iterable[int]) -> bool:
    """Knuth equivalence, decided by insertion: equivalent words share a tableau."""
    return tab(a) == tab(b)


def word_of(t: Tableau) -> Word:
    """Reading word of a tableau: rows from the bottom up, left to right."""
    return tuple(chain.from_iterable(reversed(t.rows)))


def shape(t: Tableau) -> Shape:
    """Row lengths, top row first."""
    return tuple(len(row) for row in t.rows)


def render_tableau(t: Tableau) -> str:
    """One row per line, entries separated by single spaces, top row first."""
    return "\n".join(" ".join([str(x) for x in row]) for row in t.rows)
