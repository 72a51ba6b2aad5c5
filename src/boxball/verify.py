"""Randomized invariant suites and golden-fixture checks for ``verify``.

The sampler draws states with at most 6 colors, 12 balls, capacity 4 per
box, and boxes spanning at most 30 labels from a first label in -5..5, so
labels of either sign reach every suite; with a fixed seed the whole run
is deterministic, so any failure is reproducible from the seed alone.  A
failing suite also prints its first failing case: the case index, the
run's seed and a command that replays it from anchored text in the
state's notation (compact exactly on unit capacities, walled otherwise),
``boxball evolve`` for a state and ``boxball rsk`` for a bi-word.  A
check that raises ``InvariantError``, an internal fault, fails its case
the same way, and the run goes on.

The q-independence suite draws until the recording tableau Q of a state
has a shape that is neither one row nor one column, so that Q's shape has
two distinct standard fillings: row by row and column by column.  With
each as P, it requires both states to step to the same Q.

Each golden fixture file is compared line for line with the text rendered
from the paper's three inputs (Sections 3 and 6, Figure 4), so a truncated,
altered or empty file fails; ``sec6_input.txt`` must hold exactly its input.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from itertools import accumulate
from pathlib import Path
from typing import Callable

from .bbs import (
    BiWord,
    CapacityProfile,
    State,
    UNIT_CAPACITY,
    biword_to_state,
    box_label_sequence,
    box_label_step,
    carrier_pass,
    carrier_step,
    evolve,
    label_carrier,
    mirror,
    p_symbol,
    q_evolve,
    q_symbol,
    reduce_advanced_to_standard,
    reduce_generalized_to_advanced,
    reverse_step,
    slot_word,
    state_to_biword,
)
from .notation import parse_state, render_state, render_trajectory
from .oracle import naive_original_step
from .rsk import dual, inverse_rsk, make_biword, matrix_of, render_biword, rsk, transpose
from .tableau import InvariantError, Tableau, render_tableau, shape, tab


MAX_COLORS = 6
MAX_BALLS = 12
MAX_CAPACITY = 4
MAX_SPAN = 30
BIWORD_MAX_LEN = 10
BIWORD_MAX_ENTRY = 6


def random_state(rng: random.Random) -> State:
    """Draw a state within the sampler bounds; may be empty."""
    n = rng.randint(1, MAX_COLORS)
    width = rng.randint(1, MAX_SPAN)
    lo = rng.randint(-5, 5)
    labels = list(range(lo, lo + width))
    explicit = {j: rng.randint(1, MAX_CAPACITY) for j in labels if rng.random() < 0.3}
    profile = CapacityProfile(explicit)
    free = profile.capacity_range(lo, lo + width)
    open_boxes = labels  # ascending; a box leaves once it is full
    balls: dict[int, list[int]] = defaultdict(list)
    for _ in range(rng.randint(0, MAX_BALLS)):
        if not open_boxes:
            break
        j = rng.choice(open_boxes)
        balls[j].append(rng.randint(1, n))
        free[j - lo] -= 1
        if not free[j - lo]:
            open_boxes.remove(j)
    return State(n, {j: tuple(cs) for j, cs in balls.items()}, profile)


def large_state(rng: random.Random, balls: int, generalized: bool = False) -> State:
    """Draw ``balls`` balls into uniformly random slots of 2 * ``balls`` boxes from label 1.

    Standard: capacity 1 and the distinct colors 1..balls.  Generalized:
    capacities drawn from 1..MAX_CAPACITY and colors from 1..9.
    """
    boxes = range(1, 2 * balls + 1)
    if generalized:
        n, profile = 9, CapacityProfile({j: rng.randint(1, MAX_CAPACITY) for j in boxes})
        colors = [rng.randint(1, n) for _ in range(balls)]
    else:
        n, profile = balls, UNIT_CAPACITY
        colors = rng.sample(range(1, n + 1), n)
    slots = [j for j in boxes for _ in range(profile.capacity(j))]
    contents: dict[int, list[int]] = defaultdict(list)
    for j, color in zip(rng.sample(slots, balls), colors):
        contents[j].append(color)
    return State(n, contents, profile)


def random_biword(rng: random.Random) -> BiWord:
    length = rng.randint(0, BIWORD_MAX_LEN)
    return make_biword(
        (rng.randint(1, BIWORD_MAX_ENTRY), rng.randint(1, BIWORD_MAX_ENTRY)) for _ in range(length)
    )


def superstandard_tableaux(outline: tuple[int, ...]) -> tuple[Tableau, Tableau]:
    """The row-by-row and the column-by-column standard fillings of a shape; equal only on one line."""
    row_starts = list(accumulate(outline, initial=1))
    heights = [sum(length > c for length in outline) for c in range(max(outline, default=0))]
    column_starts = list(accumulate(heights, initial=1))
    return (
        Tableau(range(row_starts[r], row_starts[r] + length) for r, length in enumerate(outline)),
        Tableau([column_starts[c] + r for c in range(length)] for r, length in enumerate(outline)),
    )


# ---------------------------------------------------------------------------
# Single-instance checks

def check_p_conservation(s: State, steps: int) -> bool:
    return len(set(map(p_symbol, evolve(s, steps)))) == 1


def check_algorithms_agree(s: State) -> bool:
    """The sweep and two steps of the trajectory, which may step by the label carrier, match the oracle."""
    after = naive_original_step(s)
    return carrier_step(s) == after and evolve(s, 2) == [s, after, naive_original_step(after)]


def check_reversible(s: State) -> bool:
    return reverse_step(carrier_step(s)) == s


def check_box_label(s: State) -> bool:
    """b' matches the evolved label sequence; C' is the leftover window capacity.

    The final carrier holds the labels of the window's slots minus the
    evolved occupied labels, as multisets: the available boxes for the
    next step over the same window.  The window's labels are taken slot
    by slot here, independently of the box walk in ``label_carrier``.
    """
    if s.is_empty():
        return True
    labels_next, final_carrier = box_label_step(s)
    if labels_next != box_label_sequence(carrier_step(s)):
        return False
    p, word = slot_word(s)
    leftover = Counter(map(s.capacities.label_of_slot, range(p, p + len(word))))
    leftover.subtract(labels_next)
    return Counter(final_carrier) == +leftover


def check_q_evolution(s: State) -> bool:
    """The carrier image of the recording tableau is the evolved recording tableau."""
    return q_evolve(q_symbol(s), s.capacities) == q_symbol(carrier_step(s))


def check_carrier_knuth(s: State) -> bool:
    """tab(C + w) == tab(w' + C') for the slot-word and box-label passes."""
    if s.is_empty():
        return True
    slot_pass = ((s.sentinel,) * s.ball_count, slot_word(s)[1])
    for carrier, word in [slot_pass, (label_carrier(s), box_label_sequence(s))]:
        out, final = carrier_pass(carrier, word)
        if tab(carrier + word) != tab(out + final):
            return False
    return True


def check_rsk_roundtrip(bw: BiWord) -> bool:
    p, q = rsk(bw)
    if inverse_rsk(p, q) != bw:
        return False
    mirrored = dual(bw)
    if dual(mirrored) != bw or rsk(mirrored) != (q, p):
        return False
    return matrix_of(mirrored) == transpose(matrix_of(bw))


def check_reduction_commutes(s: State) -> bool:
    """One generalized step equals reduce -> standard step -> un-reduce."""
    advanced = reduce_generalized_to_advanced(state_to_biword(s), s.capacities)
    standard = reduce_advanced_to_standard(advanced)
    stepped = state_to_biword(carrier_step(biword_to_state(standard, UNIT_CAPACITY, len(standard))))
    colors = sorted(advanced.bottom)  # ball r of the standard state has color colors[r - 1]
    generalized_next = make_biword(
        (s.capacities.label_of_slot(slot), colors[r - 1]) for slot, r in zip(stepped.top, stepped.bottom)
    )
    return biword_to_state(generalized_next, s.capacities, s.n) == carrier_step(s)


def q_independence_draw(rng: random.Random) -> State:
    """The first ``random_state`` draw whose Q-shape is neither one row nor one column.

    Those are exactly the shapes with fewer than two standard tableaux.  By
    Schensted's theorem the shape is one row exactly when the color word is
    weakly increasing (the empty word too), and one column exactly when it
    strictly decreases; so a draw is kept when its word has both a descent
    and a weak ascent.
    """
    while True:
        s = random_state(rng)
        word = state_to_biword(s).bottom
        steps = list(zip(word, word[1:]))
        if any(a > b for a, b in steps) and any(a <= b for a, b in steps):
            return s


def check_q_independence(s: State) -> bool:
    """States sharing a recording tableau evolve to the same one: its carrier image."""
    q0 = q_symbol(s)
    expected = q_evolve(q0, s.capacities)
    return all(
        q_symbol(carrier_step(biword_to_state(inverse_rsk(p0, q0), s.capacities, len(q0)))) == expected
        for p0 in superstandard_tableaux(shape(q0))
    )


# ---------------------------------------------------------------------------
# Suites

def _suite_line(name: str, passed: int, total: int) -> str:
    return f"{name}: {passed}/{total} {'ok' if passed == total else 'FAIL'}"


def _replay_command(case: State | BiWord) -> str:
    """A command on the case in anchored text: ``evolve`` for a state, ``rsk`` for a bi-word.

    A bi-word becomes the state holding its columns, each top letter a box
    as wide as its count.  The text is in the state's notation, compact
    exactly when every capacity is 1 and walled otherwise.  The span covers
    every ball and explicit capacity, so the text re-parses to the state
    (and ``state_to_biword`` of it to the bi-word).  A state's ``--colors``
    restores its color count; a bi-word's is its largest color, which the
    parser infers.
    """
    if isinstance(case, BiWord):
        command = "rsk"
        case = biword_to_state(case, CapacityProfile(Counter(case.top)), max(case.bottom, default=0))
    else:
        command = f"evolve --colors {case.n}"
    labels = [*case.balls, *case.capacities.explicit] or [1]
    text = render_state(case, (min(labels), max(labels)))
    return f"echo '{text}' | boxball {command}"


# perfbench/tracing.py tags the spans of this function, by name, with its
# first argument: keep both so per-suite times stay attributed.
def _state_suite(
    name: str, draw: Callable[[random.Random], object], check: Callable[[object], bool],
    rng: random.Random, cases: int, seed: int,
) -> tuple[bool, list[str]]:
    """Check ``cases`` draws from ``rng``, which the run seeded with ``seed``.

    Returns whether every case passed, and the report: the suite line, then
    a replay command for the first failing case, if any.
    """
    drawn = (draw(rng) for _ in range(cases))
    failures = [(index, case) for index, case in enumerate(drawn) if not _passes(check, case)]
    lines = [_suite_line(name, cases - len(failures), cases)]
    if failures:
        index, case = failures[0]
        lines.append(f"  first failure, case {index} of seed {seed}: {_replay_command(case)}")
    return not failures, lines


def _passes(check: Callable[[object], bool], case: object) -> bool:
    """The check's verdict on a case; an internal fault, ``InvariantError``, fails the case."""
    try:
        return check(case)
    except InvariantError:
        return False


def run_verification(seed: int, cases: int, fixtures: Path | None = None) -> tuple[bool, list[str]]:
    """Run every randomized suite (``cases`` instances each), then the fixture checks.

    Returns whether every check passed, and the report: the lines of each
    suite, then a closing verdict line.

    Every fixture file is read first, so a missing one raises ``OSError``
    before any suite runs.  A check that raises ``InvariantError`` fails
    its case, and the run goes on.  The suite table is built per call so
    that it uses the draws and checks bound in this module at that time.
    """
    if cases < 0:
        raise ValueError("case count must be nonnegative")
    texts = {name: (Path(fixtures) / name).read_text() for name in FIXTURE_CHECKS} if fixtures else {}
    suites = [
        ("p-conservation", random_state, lambda s: check_p_conservation(s, 5)),
        ("algorithm-equivalence", random_state, check_algorithms_agree),
        ("reversibility", random_state, check_reversible),
        ("box-label-evolution", random_state, check_box_label),
        ("carrier-knuth", random_state, check_carrier_knuth),
        ("q-evolution", random_state, check_q_evolution),
        ("reduction-commutation", random_state, check_reduction_commutes),
        ("rsk-roundtrip", random_biword, check_rsk_roundtrip),
        ("q-independence", q_independence_draw, check_q_independence),
    ]
    rng = random.Random(seed)
    results = [_state_suite(name, draw, check, rng, cases, seed) for name, draw, check in suites]
    for name, text in texts.items():
        passed = _passes(FIXTURE_CHECKS[name], text)
        results.append((passed, [_suite_line(f"fixture:{name}", int(passed), 1)]))
    ok = all(passed for passed, _ in results)
    lines = [line for _, suite_lines in results for line in suite_lines]
    return ok, lines + ["all checks passed" if ok else "SOME CHECKS FAILED"]


# ---------------------------------------------------------------------------
# Golden fixtures: each file is the text rendered from one of the paper's three inputs

def trajectory_block(s: State, history: int, future: int, span: tuple[int, int]) -> list[str]:
    """Unanchored timeline lines around a reference state, earliest first.

    The reference state's line is marked ``Time  t :`` and the next one
    ``Time t+1:``; every other line is indented to match.
    """
    past = [mirror(x) for x in evolve(mirror(s), history)]  # stepping the mirror image steps back
    lines = render_trajectory(past[:0:-1] + evolve(s, future), span, anchor=False)
    marks = {history: "Time  t :", history + 1: "Time t+1:"}
    return [marks.get(k, " " * 9) + line for k, line in enumerate(lines)]


_SEC3_INPUT = "@1 234_15"  # the Section 3 standard timeline
_FIG4_INPUT = "ee5e1254ee312e45eeeeeeeeee"  # the advanced state of Figure 4
# the generalized state of Section 6; Figure 5 shows its boxes 1..10
_SEC6_INPUT = "|ee5|e125|4|ee3|12|e45|ee|e|eeeee|ee|e|eeeeee|eee|eeeeeeeeeeeeeee|eeeeeee|"


def _sec6_blocks(render: Callable[[State], str]) -> list[str]:
    """Lines of ``render`` of the Section 6 states t = 0..4, a blank line between blocks."""
    return "\n\n".join(map(render, evolve(parse_state(_SEC6_INPUT), 4))).splitlines()


def _check_sec6_input(text: str) -> bool:
    """The file holds the Section 6 input; the box-label, Q and P suites pass on it over four steps."""
    if text.splitlines() != [_SEC6_INPUT]:
        return False
    transitions = evolve(parse_state(_SEC6_INPUT), 3)
    stepped = all(check_box_label(s) and check_q_evolution(s) for s in transitions)
    return stepped and check_p_conservation(transitions[0], 4)


def _golden(render: Callable[[], list[str]]) -> Callable[[str], bool]:
    """A fixture check: the file's lines are the lines ``render`` returns."""
    return lambda text: text.splitlines() == render()


FIXTURE_CHECKS: dict[str, Callable[[str], bool]] = {
    "sec3_timeline.txt": _golden(lambda: trajectory_block(parse_state(_SEC3_INPUT), 4, 5, (-18, 31))),
    "sec5_advanced_timeline.txt": _golden(lambda: trajectory_block(parse_state(_FIG4_INPUT), 3, 3, (-18, 35))),
    "sec5_fig4_advanced.txt": _golden(
        lambda: render_trajectory(evolve(parse_state(_FIG4_INPUT), 1), (0, 25), empty="e")
    ),
    "sec5_fig5_generalized.txt": _golden(
        lambda: render_trajectory(evolve(parse_state(_SEC6_INPUT), 1), (1, 10))
    ),
    "sec6_input.txt": _check_sec6_input,
    "sec6_table1.txt": _golden(lambda: render_trajectory(evolve(parse_state(_SEC6_INPUT), 4))),
    "sec6_biwords.txt": _golden(lambda: _sec6_blocks(lambda s: render_biword(state_to_biword(s)))),
    "sec6_dual_biwords.txt": _golden(lambda: _sec6_blocks(lambda s: render_biword(dual(state_to_biword(s))))),
    "sec6_p_symbol.txt": _golden(lambda: render_tableau(p_symbol(parse_state(_SEC6_INPUT))).splitlines()),
    "sec6_q_symbols.txt": _golden(lambda: _sec6_blocks(lambda s: render_tableau(q_symbol(s)))),
}
