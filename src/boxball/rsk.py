"""Bi-words, dual bi-words, and the RSK correspondence.

A bi-word is a pair of equal-length integer rows whose columns sit in
lexicographic order (top weakly increasing, bottom weakly increasing
within each run of equal top entries).  ``rsk`` sends a bi-word to its
insertion tableau P and recording tableau Q; ``inverse_rsk`` is the exact
inverse.  Entries on both rows may be any integers, of either sign.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from operator import le
from typing import Iterable

from .tableau import InvariantError, Tableau, _bump, shape

IntegerMatrix = dict[tuple[int, int], int]


@dataclass(frozen=True)
class BiWord:
    top: tuple[int, ...] = ()
    bottom: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        top = tuple(map(int, self.top))
        bottom = tuple(map(int, self.bottom))
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "bottom", bottom)
        if len(top) != len(bottom):
            raise ValueError(f"row lengths differ: {len(top)} vs {len(bottom)}")
        cols = list(zip(top, bottom))
        if not all(map(le, cols, cols[1:])):  # (top, bottom) pairs in lexicographic order
            k = list(map(le, cols, cols[1:])).index(False)
            if top[k] > top[k + 1]:
                raise ValueError(f"top row decreases at column {k + 1}")
            raise ValueError(f"bottom row decreases within equal top entries at column {k + 1}")

    def __len__(self) -> int:
        return len(self.top)

    def columns(self) -> list[tuple[int, int]]:
        return list(zip(self.top, self.bottom))


EMPTY_BIWORD = BiWord()


def make_biword(columns: Iterable[tuple[int, int]]) -> BiWord:
    """Sort (top, bottom) pairs lexicographically into a bi-word."""
    cols = sorted((int(i), int(j)) for i, j in columns)
    return BiWord(tuple(i for i, _ in cols), tuple(j for _, j in cols))


def dual(bw: BiWord) -> BiWord:
    """Swap the rows and re-sort the columns; an involution."""
    return make_biword((j, i) for i, j in zip(bw.top, bw.bottom))


def rsk(bw: BiWord) -> tuple[Tableau, Tableau]:
    """RSK correspondence: P from bumping the bottom row, Q recording the top.

    The k-th insertion of bottom[k] creates one box, at the end of row
    ``ends[k]``; Q carries top[k] in that box.  So Q's rows are the top
    entries grouped by that row, in order, and must have P's lengths.
    Lexicographic column order makes Q column-strict, which the Tableau
    constructor checks rather than assumes.
    """
    p_rows, ends = _bump(bw.bottom)
    q_rows: list[list[int]] = [[] for _ in p_rows]
    for i, r in zip(bw.top, ends):
        q_rows[r].append(i)
    if list(map(len, q_rows)) != list(map(len, p_rows)):
        raise InvariantError(f"Q's row lengths {list(map(len, q_rows))} differ from P's {list(map(len, p_rows))}")
    return Tableau(p_rows), Tableau(q_rows)


def inverse_rsk(p: Tableau, q: Tableau) -> BiWord:
    """Reverse RSK: recover the bi-word that produced (p, q).

    Boxes are removed in decreasing order of their Q entry; among equal
    entries the rightmost column goes first (equal entries never share a
    column).  Each removal reverse-bumps a letter up and out of P.
    """
    if shape(p) != shape(q):
        raise ValueError(f"shape mismatch: {shape(p)} vs {shape(q)}")
    p_rows = [list(row) for row in p.rows]
    order = sorted((v, c, r) for r, row in enumerate(q.rows) for c, v in enumerate(row))
    top: list[int] = []
    bottom: list[int] = []
    for v, c, r in reversed(order):
        if c != len(p_rows[r]) - 1 or (r + 1 < len(p_rows) and len(p_rows[r + 1]) > c):
            raise ValueError(f"recording tableau entry {v} does not sit at a removable corner")
        x = p_rows[r].pop()
        if not p_rows[r]:
            p_rows.pop()
        for k in range(r - 1, -1, -1):
            row = p_rows[k]
            j = _rightmost_below(row, x)
            x, row[j] = row[j], x
        top.append(v)
        bottom.append(x)
    try:
        return BiWord(top[::-1], bottom[::-1])
    except ValueError:
        raise ValueError("recording tableau is not consistent with any bi-word") from None


def _rightmost_below(row: list[int], x: int) -> int:
    """Index of the rightmost entry strictly smaller than x in a sorted row."""
    j = bisect_left(row, x) - 1
    if j < 0:
        raise ValueError("reverse bumping found no smaller entry; tableau pair is inconsistent")
    return j


def matrix_of(bw: BiWord) -> IntegerMatrix:
    """Count matrix of the bi-word: entry (i, j) counts columns (i over j)."""
    return dict(Counter(zip(bw.top, bw.bottom)))


def transpose(m: IntegerMatrix) -> IntegerMatrix:
    return {(j, i): c for (i, j), c in m.items()}


def render_biword(bw: BiWord) -> str:
    """Two lines of space-separated integers: top row, then bottom row."""
    return " ".join(str(x) for x in bw.top) + "\n" + " ".join(str(x) for x in bw.bottom)
