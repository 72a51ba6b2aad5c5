"""The ball-moving rule, transcribed ball by ball: the independent reference for the steppers.

``verify``, the tests and the benchmark's checks compare ``carrier_step``
and ``evolve`` with it.  It is deliberately slow and deliberately
independent: nothing here calls the fast paths, so agreement between the
two is evidence, not tautology.
"""

from __future__ import annotations

from .bbs import State


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
