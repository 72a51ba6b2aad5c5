"""Brute-force Knuth search, the independent reference for ``knuth_equivalent``.

Deliberately slow and deliberately independent of the tableau machinery:
it walks elementary Knuth rearrangements one word at a time, so agreement
with ``tab`` is evidence, not tautology.
"""

from __future__ import annotations

from typing import Iterable

from boxball.tableau import Word, as_word


class SearchInconclusive(RuntimeError):
    """The search budget ran out before reaching an answer."""


def elementary_moves(letters: Iterable[int]) -> set[Word]:
    """All words one elementary Knuth transformation away from the input.

    Both elementary rearrangements of a window of three letters, with x <=
    y <= z in value, and their inverses, spelled out one by one: y x z <->
    y z x when x < y, and x z y <-> z x y when y < z.  The set is
    symmetric: b is a move of a exactly when a is a move of b.
    """
    w = as_word(letters)
    out: set[Word] = set()
    for i in range(len(w) - 2):
        y, z, x = w[i], w[i + 1], w[i + 2]
        if x < y <= z:
            out.add(w[:i] + (y, x, z) + w[i + 3:])
        y, x, z = w[i], w[i + 1], w[i + 2]
        if x < y <= z:
            out.add(w[:i] + (y, z, x) + w[i + 3:])
        x, z, y = w[i], w[i + 1], w[i + 2]
        if x <= y < z:
            out.add(w[:i] + (z, x, y) + w[i + 3:])
        z, x, y = w[i], w[i + 1], w[i + 2]
        if x <= y < z:
            out.add(w[:i] + (x, z, y) + w[i + 3:])
    return out


def bfs_knuth_equivalent(a: Iterable[int], b: Iterable[int], max_frontier: int = 10**6) -> bool:
    """Exhaustive breadth-first reachability through elementary rearrangements.

    Raises SearchInconclusive when more than ``max_frontier`` words would
    have to be visited; that signal is distinct from a definite False.
    """
    start, goal = as_word(a), as_word(b)
    if len(start) != len(goal) or sorted(start) != sorted(goal):
        return False
    if start == goal:
        return True
    seen = {start}
    frontier = [start]
    while frontier:
        next_frontier = []
        for w in frontier:
            for v in elementary_moves(w):
                if v in seen:
                    continue
                if v == goal:
                    return True
                seen.add(v)
                if len(seen) > max_frontier:
                    raise SearchInconclusive(
                        f"visited more than {max_frontier} words without an answer"
                    )
                next_frontier.append(v)
        frontier = next_frontier
    return False


def strip_largest(letters: Iterable[int], p: int) -> Word:
    """Delete the p largest letters (with multiplicity), keeping the rest in order.

    Among equal letters the rightmost occurrences are deleted first; any
    tie-break gives the same surviving value sequence, this one is fixed
    for determinism.
    """
    w = as_word(letters)
    if not 0 <= p <= len(w):
        raise ValueError(f"cannot remove {p} letters from a word of length {len(w)}")
    doomed = set(sorted(range(len(w)), key=lambda i: (-w[i], -i))[:p])
    return tuple(x for i, x in enumerate(w) if i not in doomed)
