"""Brute-force reference implementations, used by tests and ``verify`` only.

Deliberately slow and deliberately independent: nothing here calls the
fast paths, so agreement between the two is evidence, not tautology.
"""

from __future__ import annotations

from typing import Iterable

from .bbs import State
from .tableau import Word, as_word


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


def naive_original_step(s: State) -> State:
    """Ball-by-ball transcription of the moving rule, one walk per ball.

    For each color in increasing order: while an unmoved ball of that
    color remains, take the leftmost one and walk right slot by slot to
    the first vacancy.  An unmoved ball never changes place, so that order
    is the order of the balls sorted once by (color, slot).  The slots are
    numbered box by box, from the leftmost occupied box to N boxes past
    the rightmost, by adding up the box capacities; nothing here goes
    through the slot-label mapping of ``CapacityProfile``.  The cost is
    linear in that span plus the length of the walks.
    """
    if s.is_empty():
        return s
    owner: list[int] = []  # label of the box owning each slot, left to right
    board: list[int] = []  # color in each slot, 0 when vacant
    for label in range(min(s.balls), max(s.balls) + s.ball_count + 1):
        colors = s.balls.get(label, ())
        cap = s.capacities.capacity(label)
        owner += [label] * cap
        board += [0] * (cap - len(colors)) + list(colors)
    for color, slot in sorted((c, k) for k, c in enumerate(board) if c):
        board[slot] = 0
        target = slot + 1
        while board[target]:
            target += 1
        board[target] = color
    boxes: dict[int, list[int]] = {}
    for slot, color in enumerate(board):
        if color:
            boxes.setdefault(owner[slot], []).append(color)
    return State(s.n, {label: tuple(colors) for label, colors in boxes.items()}, s.capacities)
