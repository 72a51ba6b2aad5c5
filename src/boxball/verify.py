"""Randomized invariant suites and golden-fixture checks for ``verify``.

The sampler draws states with at most 6 colors, 12 balls, capacity 4 per
box, and boxes spanning at most 30 labels from a first label in -5..5, so
labels of either sign reach every suite; with a fixed seed the whole run
is deterministic, so any failure is reproducible from the seed alone.  A
failing suite also prints its first failing case: the case index and a
command that replays it from anchored walled text, ``boxball evolve`` for
a state and ``boxball rsk`` for a bi-word.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from dataclasses import dataclass, field
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
    p_symbol,
    q_evolve,
    q_symbol,
    reduce_advanced_to_standard,
    reduce_generalized_to_advanced,
    reverse_step,
    slot_word,
    state_to_biword,
    window,
)
from .notation import parse_state, render_state, render_trajectory
from .oracle import naive_original_step
from .rsk import dual, inverse_rsk, make_biword, matrix_of, render_biword, rsk, transpose
from .tableau import Tableau, render_tableau, shape, tab


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
    free = {j: profile.capacity(j) for j in labels}
    balls: dict[int, list[int]] = defaultdict(list)
    for _ in range(rng.randint(0, MAX_BALLS)):
        open_boxes = [j for j in labels if free[j]]
        if not open_boxes:
            break
        j = rng.choice(open_boxes)
        balls[j].append(rng.randint(1, n))
        free[j] -= 1
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


def standard_tableaux(outline: tuple[int, ...], limit: int) -> list[Tableau]:
    """Up to ``limit`` standard tableaux of the given shape (entries 1..N, each once)."""
    total = sum(outline)
    found: list[Tableau] = []
    rows: list[list[int]] = [[] for _ in outline]

    def place(k: int) -> bool:
        if k > total:
            found.append(Tableau(tuple(tuple(row) for row in rows)))
            return len(found) >= limit
        for r in range(len(outline)):
            if len(rows[r]) < outline[r] and (r == 0 or len(rows[r - 1]) > len(rows[r])):
                rows[r].append(k)
                if place(k + 1):
                    return True
                rows[r].pop()
        return False

    place(1)
    return found


# ---------------------------------------------------------------------------
# Single-instance checks

def check_p_conservation(s: State, steps: int = 10) -> bool:
    trajectory = evolve(s, steps)
    reference = p_symbol(trajectory[0])
    return all(p_symbol(x) == reference for x in trajectory[1:])


def check_algorithms_agree(s: State) -> bool:
    return carrier_step(s) == naive_original_step(s)


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
    p, q = window(s)
    leftover = Counter(s.capacities.label_of_slot(slot) for slot in range(p, q + 1))
    leftover.subtract(labels_next)
    return Counter(final_carrier) == +leftover


def check_q_evolution(s: State) -> bool:
    """The carrier image of the recording tableau is the evolved recording tableau."""
    if s.is_empty():
        return True
    return q_evolve(q_symbol(s), s.capacities) == q_symbol(carrier_step(s))


def check_carrier_knuth(s: State) -> bool:
    """tab(C + w) == tab(w' + C') for the slot-word and box-label passes."""
    if s.is_empty():
        return True
    p, q = window(s)
    carrier = (s.sentinel,) * s.ball_count
    word = slot_word(s, p, q)
    out, final = carrier_pass(carrier, word)
    if tab(carrier + word) != tab(out + final):
        return False
    labels = box_label_sequence(s)
    carrier = label_carrier(s)
    out, final = carrier_pass(carrier, labels)
    return tab(carrier + labels) == tab(out + final)


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
    if s.is_empty():
        return True
    advanced, slot_labels = reduce_generalized_to_advanced(state_to_biword(s), s.capacities)
    standard, rank_colors = reduce_advanced_to_standard(advanced)
    n_std = len(standard)
    stepped_std = carrier_step(biword_to_state(standard, UNIT_CAPACITY, n_std))
    bw_std = state_to_biword(stepped_std)
    advanced_next = BiWord(bw_std.top, tuple(rank_colors[r] for r in bw_std.bottom))
    generalized_next = make_biword(
        (slot_labels[i], c) for i, c in zip(advanced_next.top, advanced_next.bottom)
    )
    return biword_to_state(generalized_next, s.capacities, s.n) == carrier_step(s)


def q_independence_draw(rng: random.Random) -> State | None:
    """A nonempty state whose Q-shape is neither one row nor one column, else None (resample).

    Those are exactly the shapes with fewer than two standard tableaux.  By
    Schensted's theorem the shape is one row exactly when the color word is
    weakly increasing (the empty word too), and one column exactly when it
    strictly decreases.
    """
    s = random_state(rng)
    word = state_to_biword(s).bottom
    steps = list(zip(word, word[1:]))
    return None if all(a <= b for a, b in steps) or all(a > b for a, b in steps) else s


def check_q_independence(s: State) -> bool:
    """States sharing a recording tableau evolve to the same one: its carrier image."""
    q0 = q_symbol(s)
    expected = q_evolve(q0, s.capacities)
    return all(
        q_symbol(carrier_step(biword_to_state(inverse_rsk(p0, q0), s.capacities, len(q0)))) == expected
        for p0 in standard_tableaux(shape(q0), 2)
    )


# ---------------------------------------------------------------------------
# Suites

@dataclass
class SuiteResult:
    name: str
    passed: int = 0
    failed: int = 0
    first_failure: tuple[int, State | BiWord] | None = None  # (case index, case)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def line(self) -> str:
        verdict = "ok" if self.ok else "FAIL"
        return f"{self.name}: {self.passed}/{self.passed + self.failed} {verdict}"

    def lines(self) -> list[str]:
        """The suite line, then a replay command for its first failing case, if any."""
        if self.first_failure is None:
            return [self.line()]
        case, failing = self.first_failure
        return [self.line(), f"  first failure, case {case}: {_replay_command(failing)}"]


def _replay_command(case: State | BiWord) -> str:
    """A command on the case in anchored walled text: ``evolve`` for a state, ``rsk`` for a bi-word.

    A bi-word becomes the state holding its columns, each top letter a box
    as wide as its count.  The span covers every ball and explicit
    capacity, and ``--colors`` restores the color count, so the text
    re-parses to the state (and ``state_to_biword`` of it to the bi-word).
    """
    command = "evolve"
    if isinstance(case, BiWord):
        command = "rsk"
        case = biword_to_state(case, CapacityProfile(Counter(case.top)), max(case.bottom, default=0))
    labels = [*case.balls, *case.capacities.explicit] or [1]
    text = render_state(case, "walled", (min(labels), max(labels)))
    return f"echo '{text}' | boxball {command} --colors {case.n}"


@dataclass
class VerifyReport:
    suites: list[SuiteResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.suites)

    def lines(self) -> list[str]:
        out = [line for r in self.suites for line in r.lines()]
        out.append("all checks passed" if self.ok else "SOME CHECKS FAILED")
        return out


# perfbench/tracing.py tags the spans of this function, by name, with its
# first argument: keep both so per-suite times stay attributed.
def _state_suite(
    name: str, draw: Callable[[random.Random], object], check: Callable[[object], bool],
    rng: random.Random, cases: int,
) -> SuiteResult:
    """Check ``cases`` draws; a draw of None is resampled and not counted."""
    result = SuiteResult(name)
    for index in range(cases):
        while (case := draw(rng)) is None:
            pass
        if check(case):
            result.passed += 1
        else:
            result.failed += 1
            if result.first_failure is None:
                result.first_failure = (index, case)
    return result


def run_verification(seed: int, cases: int, fixtures: Path | None = None) -> VerifyReport:
    """Run every randomized suite (``cases`` instances each), then the fixture checks.

    Every fixture file is read first, so a missing one raises ``OSError``
    before any suite runs.  The suite table is built per call so that it
    uses the draws and checks bound in this module at that time.
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
    report = VerifyReport([_state_suite(name, draw, check, rng, cases) for name, draw, check in suites])
    for name, text in texts.items():
        passed = FIXTURE_CHECKS[name](text)
        report.suites.append(SuiteResult(f"fixture:{name}", int(passed), int(not passed)))
    return report


# ---------------------------------------------------------------------------
# Golden fixture regeneration

def trajectory_block(
    s: State,
    history: int,
    future: int,
    span: tuple[int, int],
    now_index_prefixes: dict[int, str],
    pad: str = " " * 9,
) -> list[str]:
    """Timeline lines around a reference state, earliest first."""
    states = [s]
    for _ in range(history):
        states.insert(0, reverse_step(states[0]))
    for _ in range(future):
        states.append(carrier_step(states[-1]))
    lines = render_trajectory(states, "compact", span, anchor=False)
    return [now_index_prefixes.get(k, pad) + line for k, line in enumerate(lines)]


def _check_sec3_timeline(text: str) -> bool:
    s = parse_state("@1 234_15", colors=5)
    block = trajectory_block(
        s, history=4, future=5, span=(-18, 31),
        now_index_prefixes={4: "Time  t :", 5: "Time t+1:"},
    )
    return text.splitlines() == block


def _check_sec5_advanced_timeline(text: str) -> bool:
    s = parse_state("@1 ee5e1254ee312e45eeeeeeeeee", colors=5)
    block = trajectory_block(
        s, history=3, future=3, span=(-17, 36),
        now_index_prefixes={3: "Time  t :", 4: "Time t+1:"},
    )
    return text.splitlines() == block


def _check_one_step(text: str, notation: str) -> bool:
    lines = [line for line in text.splitlines() if line.strip()]
    before = parse_state(lines[0])
    after = carrier_step(before)
    if notation == "compact":
        rendered = render_state(after, "compact", (0, len(lines[0]) - 1), empty="e")
    else:
        rendered = render_state(after, "walled", (1, lines[0].count("|") - 1))
    return rendered == lines[1]


def _check_sec6_table(text: str) -> bool:
    lines = [line for line in text.splitlines() if line.strip()]
    start = parse_state(lines[0])
    states = evolve(start, len(lines) - 1)
    return render_trajectory(states, "walled") == lines


def _check_sec6_input(text: str) -> bool:
    """Deep check off the full-capacity input: label and tableau evolution."""
    start = parse_state(text.strip())
    states = evolve(start, 4)
    for before, after in zip(states, states[1:]):
        if box_label_step(before)[0] != box_label_sequence(after):
            return False
        if q_evolve(q_symbol(before), before.capacities) != q_symbol(after):
            return False
    reference = p_symbol(states[0])
    return all(p_symbol(x) == reference for x in states)


def _check_sec6_biwords(text: str, mirrored: bool) -> bool:
    blocks = [b for b in text.split("\n\n") if b.strip()]
    start = parse_state(_SEC6_INPUT)
    states = evolve(start, len(blocks) - 1)
    for s, block in zip(states, blocks):
        bw = state_to_biword(s)
        if mirrored:
            bw = dual(bw)
        if render_biword(bw) != block.strip("\n"):
            return False
    return True


def _check_sec6_p(text: str) -> bool:
    start = parse_state(_SEC6_INPUT)
    return render_tableau(p_symbol(start)) == text.strip("\n")


def _check_sec6_q(text: str) -> bool:
    blocks = [b for b in text.split("\n\n") if b.strip()]
    start = parse_state(_SEC6_INPUT)
    states = evolve(start, len(blocks) - 1)
    return [render_tableau(q_symbol(s)) for s in states] == [b.strip("\n") for b in blocks]


_SEC6_INPUT = (
    "|ee5|e125|4|ee3|12|e45|ee|e|eeeee|ee|e|eeeeee|eee|eeeeeeeeeeeeeee|eeeeeee|"
)

FIXTURE_CHECKS: dict[str, Callable[[str], bool]] = {
    "sec3_timeline.txt": _check_sec3_timeline,
    "sec5_advanced_timeline.txt": _check_sec5_advanced_timeline,
    "sec5_fig4_advanced.txt": lambda text: _check_one_step(text, "compact"),
    "sec5_fig5_generalized.txt": lambda text: _check_one_step(text, "walled"),
    "sec6_input.txt": _check_sec6_input,
    "sec6_table1.txt": _check_sec6_table,
    "sec6_biwords.txt": lambda text: _check_sec6_biwords(text, mirrored=False),
    "sec6_dual_biwords.txt": lambda text: _check_sec6_biwords(text, mirrored=True),
    "sec6_p_symbol.txt": _check_sec6_p,
    "sec6_q_symbols.txt": _check_sec6_q,
}
