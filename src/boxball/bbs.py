"""Box-ball states and their time evolution.

A state places finitely many balls with colors 1..n into boxes indexed by
the integers; box j holds at most ``capacity(j)`` balls.  The vacancy
sentinel e is represented as n+1 and compares greater than every color.

Boxes are expanded into *slots*: with d(0) = 0 and d(j) - d(j-1) equal to
the capacity of box j, box j owns slots d(j-1)+1 .. d(j).  A box's m
balls take its last m slots, colors ascending, so a state is fully
described by the multiset of colors per box.  A step acts on the
*window*, the slots from the first ball to N slots past the last, N the
ball count; ``slot_word`` is the one helper that reads it, returning its
first slot and one letter per slot.  ``_packed_slots`` (occupied slots)
and ``_vacant_labels`` (vacant-slot labels) read the window from a
bi-word's top row: box labels ascending, one per ball, which for a state
``_columns`` reads as a plain list together with the colors.  Standard BBS:
every capacity 1, all colors distinct.  Advanced: every capacity 1,
repeated colors allowed.  Generalized: arbitrary capacities.

One time step moves colors 1, 2, ..., n in order, the leftmost unmoved
ball of the current color first, each ball to the nearest vacant slot
strictly to its right.  ``carrier_step`` computes that step by sweeping a
carrier of N sentinels along the slot word, box by box: the vacancy letter
e exceeds everything the carrier holds, so a run of k vacancies is k wraps
that unload the carrier's k least entries, one slice of its sorted list,
and a ball never wraps, since the carrier always keeps an e above it.  The
sweep reads the occupied boxes' slot ends in one pass
(``CapacityProfile.slot_ends``) and records each drop as a box label and
a color, two flat lists in slot order.  ``_boxes`` turns such
label-ordered columns into boxes, for a step and for ``biword_to_state``
alike; a one-ball box is a 1-tuple, the normal form that ``State`` stores
as it comes, with no conversion or check beyond its color range.  A
step's output is in normal form by construction (int labels, colors
ascending per box, each from the state before, no box past its capacity),
so ``carrier_step`` and ``_trajectory`` build it by ``_normal_state``,
which skips ``State``'s box-by-box check; the carrier's end check and the
label carrier's length check guard it instead.  Compact parsing
(``notation``) is its one other user; ``biword_to_state``, ``mirror``,
walled parsing and every ``State`` a caller builds keep the check.  The
ball-moving rule itself lives only in ``oracle.naive_original_step``, as
an independent reference.
``evolve`` steps a dense window, at most ``_DENSE`` vacant slots per ball,
by the box-label carrier instead, carried from step to step
(``_trajectory``), and hands over to ``carrier_step`` for the rest of the
run once the window is sparser; single steps, ``reverse_step`` and the
sparse windows stay on the sweep.
The step backwards is the forward step seen in a mirror (``mirror``: box j
to -j, color c to n+1-c), and the occupied-box labels evolve autonomously
by a carrier over the vacant-slot labels (``box_label_step``,
``q_evolve``), which both build box by box from the top row and the
window's capacities, read as one list (``CapacityProfile.capacity_range``).
Both run that carrier by ``_label_pass``, as ``evolve``'s dense steps do:
over a window it never wraps, so a ball with no vacant label above it
raises ``InvariantError``.  ``carrier_pass`` is the general pass, which
may wrap, for slot words and for showing a pass letter by letter.
Labels and slot indices are plain Python integers; one step shifts labels
right by at most the ball count N, so magnitudes stay small at desk scale.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, compress, islice, repeat
from operator import add, mul
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .rsk import BiWord
from .tableau import InvariantError, Tableau, Word, shape, tab, word_of

Carrier = tuple[int, ...]  # weakly increasing multiset of letters or labels
LabelSequence = tuple[int, ...]  # box labels listed per ascending ball color
_DENSE = 4  # evolve steps by the label carrier while the window holds at most this many vacant slots per ball


@dataclass(frozen=True)
class CapacityProfile:
    """Per-box capacities: explicit overrides over a default for all other boxes.

    The slot-label mapping is a table built once, at construction: the
    sorted explicit labels, the boundary d(k) at each of them, and the
    prefix sums of their excess capacity over the default.  Between two
    explicit labels every box has the default capacity, so ``slot_end``
    is one ``bisect_right`` plus a prefix sum and ``label_of_slot`` one
    ``bisect_left`` plus a ceiling division; ``slot_ends`` reads a whole
    list of labels that way in one C-level ``map`` chain.  With no explicit
    entries the table is empty and the two lookups reduce to the closed
    forms ``label * default`` and ``ceil(slot / default)``.  The table is
    derived from ``explicit`` and ``default``, and ``==``, ``hash`` and
    ``repr`` ignore it.
    """

    explicit: Mapping[int, int] = field(default_factory=dict)
    default: int = 1
    # sorted explicit labels, d(label) at each, and the excess sums: d(j) = j * default +
    # _excess[i] for every j with bisect_right(_labels, j) == i
    _labels: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _ends: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _excess: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if int(self.default) < 1:
            raise ValueError(f"default capacity {self.default} must be at least 1")
        default = int(self.default)
        object.__setattr__(self, "default", default)
        explicit = {}
        for label, cap in self.explicit.items():
            label, cap = int(label), int(cap)
            if cap < 1:
                raise ValueError(f"capacity {cap} of box {label} must be at least 1")
            if cap != default:
                explicit[label] = cap
        object.__setattr__(self, "explicit", MappingProxyType(explicit))
        labels = tuple(sorted(explicit))
        sums = [0]
        for label in labels:
            sums.append(sums[-1] + explicit[label] - default)
        base = sums[bisect_right(labels, 0)]  # so that d(0) = 0
        excess = tuple(x - base for x in sums)
        ends = tuple(k * default + excess[i + 1] for i, k in enumerate(labels))
        for name, value in (("_labels", labels), ("_ends", ends), ("_excess", excess)):
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        return hash((frozenset(self.explicit.items()), self.default))

    @property
    def is_unit(self) -> bool:
        """Capacity 1 in every box."""
        return self.default == 1 and not self.explicit

    def capacity(self, label: int) -> int:
        return self.explicit.get(label, self.default)

    def capacity_range(self, start: int, stop: int) -> list[int]:
        """Capacities of the boxes start .. stop-1: the default, with the explicit entries written over it."""
        caps = [self.default] * (stop - start)
        labels = self._labels
        for label in labels[bisect_left(labels, start):bisect_left(labels, stop)]:
            caps[label - start] = self.explicit[label]
        return caps

    def slot_end(self, label: int) -> int:
        """Cumulative boundary d(label); box j owns slots d(j-1)+1 .. d(j)."""
        return label * self.default + self._excess[bisect_right(self._labels, label)]

    def slot_ends(self, labels: Sequence[int]) -> list[int]:
        """``slot_end`` of each label, in one pass over the list."""
        excess = map(self._excess.__getitem__, map(bisect_right, repeat(self._labels), labels))
        return list(map(add, map(mul, labels, repeat(self.default)), excess))

    def slot_range(self, label: int) -> tuple[int, int]:
        """Inclusive slot interval owned by one box."""
        return self.slot_end(label - 1) + 1, self.slot_end(label)

    def label_of_slot(self, slot: int) -> int:
        """Label of the box owning a slot index: the least j with d(j) >= slot."""
        i = bisect_left(self._ends, slot)
        # in the gap of default-capacity boxes before explicit label i
        label = -((self._excess[i] - slot) // self.default)
        return label if i == len(self._labels) else min(label, self._labels[i])


UNIT_CAPACITY = CapacityProfile()


@dataclass(frozen=True)
class State:
    """A box-ball configuration: color multiset per box label."""

    n: int
    balls: Mapping[int, Word] = field(default_factory=dict)
    capacities: CapacityProfile = UNIT_CAPACITY

    def __post_init__(self) -> None:
        n = int(self.n)
        if n < 0:
            raise ValueError("number of colors must be nonnegative")
        object.__setattr__(self, "n", n)
        balls: dict[int, Word] = {}
        capacity = self.capacities.capacity
        for label, colors in self.balls.items():
            # a box in normal form, an int label and a 1-tuple of an int color in 1..n, is stored as
            # it is; one ball fits every box.  Exact types only: a bool or an int subclass is converted
            if type(colors) is tuple and len(colors) == 1 and type(label) is int:
                c = colors[0]
                if type(c) is int and 0 < c <= n:
                    balls[label] = colors
                    continue
            label, colors = int(label), tuple(sorted(map(int, colors)))
            if not colors:
                continue
            if colors[0] < 1 or colors[-1] > n:
                raise ValueError(f"box {label} holds a color outside 1..{n}")
            if len(colors) > capacity(label):
                raise _overfull(label, len(colors), capacity(label))
            balls[label] = colors
        object.__setattr__(self, "balls", MappingProxyType(balls))

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.balls.items()), self.capacities))

    @property
    def ball_count(self) -> int:
        return sum(map(len, self.balls.values()))

    @property
    def sentinel(self) -> int:
        return self.n + 1

    def is_empty(self) -> bool:
        return not self.balls


def _normal_state(n: int, boxes: dict[int, Word], capacities: CapacityProfile) -> State:
    """A ``State`` from boxes already in normal form, without ``State``'s check.

    Only for producers whose output is checked by construction: an ``int``
    n >= 0, ``int`` labels, and per box a nonempty tuple of ``int`` colors
    in 1..n, ascending, no longer than the box's capacity.
    """
    s = object.__new__(State)
    object.__setattr__(s, "n", n)
    object.__setattr__(s, "balls", MappingProxyType(boxes))
    object.__setattr__(s, "capacities", capacities)
    return s


def _packed_slots(top: Sequence[int], capacities: CapacityProfile) -> list[int]:
    """Slots of an ascending top row, a box label per ball: a box's m balls take its last m slots."""
    ends = capacities.slot_ends(top)
    slots: list[int] = []
    for label, m in Counter(top).items():  # top ascends, and so do its counts
        if m > 1 and m > capacities.capacity(label):  # one ball fits any box
            raise _overfull(label, m, capacities.capacity(label))
        end = ends[len(slots) + m - 1]
        slots.extend(range(end - m + 1, end + 1))
    return slots


def _overfull(label: int, m: int, cap: int) -> ValueError:
    return ValueError(f"box {label} holds {m} balls but has capacity {cap}")


def slot_word(s: State) -> tuple[int, Word]:
    """The window's first slot p and its letters, one per slot: the ball color, or the sentinel n+1.

    The window [p, p + len - 1] runs from the first ball to N slots past
    the last, so it holds the occupied slots now and after one step.  Balls
    pack to the right of their box (``_packed_slots``).
    """
    if s.is_empty():
        raise ValueError("an empty state has no window")
    top, colors = _columns(s)
    slots = _packed_slots(top, s.capacities)
    p = slots[0]
    letters = [s.sentinel] * (slots[-1] - p + 1 + len(slots))
    for slot, color in zip(slots, colors):
        letters[slot - p] = color
    return p, tuple(letters)


def state_to_biword(s: State) -> BiWord:
    """Columns (box label over ball color) scanned left to right."""
    return BiWord(*_columns(s))


def _columns(s: State) -> tuple[list[int], list[int]]:
    """A state's columns in label order: the box label of each ball, ascending, and the ball colors."""
    labels = sorted(s.balls)
    boxes = list(map(s.balls.__getitem__, labels))
    colors = list(chain.from_iterable(boxes))
    if len(colors) > len(labels):  # a box of several balls repeats its label once per ball
        labels = list(chain.from_iterable(map(repeat, labels, map(len, boxes))))
    return labels, colors


def biword_to_state(bw: BiWord, capacities: CapacityProfile, n: int) -> State:
    """Inverse of ``state_to_biword`` against a given capacity profile."""
    return State(n, _boxes(bw.top, bw.bottom), capacities)


def p_symbol(s: State) -> Tableau:
    """Insertion tableau of the color word; conserved by the time evolution."""
    return tab(_columns(s)[1])


def q_symbol(s: State) -> Tableau:
    """Recording tableau; carries the box labels and evolves autonomously.

    The box-label sequence is the bottom row of the dual bi-word, and by
    Knuth's symmetry theorem the recording tableau of a bi-word is the
    insertion tableau of its dual's bottom row.
    """
    return tab(box_label_sequence(s))


def box_label_sequence(s: State) -> LabelSequence:
    """Labels of the occupied boxes listed per ascending ball color: the columns sorted by (color, label)."""
    labels, colors = _columns(s)
    return tuple(j for _, j in sorted(zip(colors, labels)))


def carrier_pass(carrier: Iterable[int], word: Iterable[int]) -> tuple[Word, Carrier]:
    """Sweep a carrier along a word, exchanging one element per letter.

    At each letter x the carrier unloads the smallest element strictly
    greater than x, or its minimum when no element exceeds x, and loads x
    in its place.  Returns the unloaded word and the final carrier.  Every
    exchange is an elementary Knuth rearrangement, so the concatenations
    satisfy tab(carrier + word) == tab(word' + carrier').

    The carrier is the sorted list ``load[start:]`` and is updated in
    place, with one bisection per letter and no shifting of the list.  If
    ``load[i]`` is the least element above x, then ``load[i-1] <= x <
    load[i]``, so x takes over index i and the order holds.  If nothing
    exceeds x, the minimum ``load[start]`` leaves by advancing ``start``
    and x, now the largest, is appended.
    """
    load = sorted(map(int, carrier))
    start = 0
    out: list[int] = []
    for x in map(int, word):
        i = bisect_right(load, x, start)
        if i == len(load):  # nothing exceeds x: the minimum leaves and x goes last
            if i == start:
                raise ValueError("cannot run a carrier pass with an empty carrier")
            i, start = start, start + 1
            load.append(x)
        out.append(load[i])
        load[i] = x  # in the wrap case index i has just left the carrier
    return tuple(out), tuple(load[start:])


def carrier_step(s: State) -> State:
    """One time step by sweeping an all-sentinel carrier along the slot word.

    The carrier holds N copies of e = n+1, one per ball, and sweeps the
    window [p, q] from the first ball to N slots past the last, as
    ``carrier_pass`` would; it returns to all sentinels at the end.  Equals
    the ball-moving rule (``oracle.naive_original_step``) on every state.

    The sweep walks the occupied boxes, not the slots, and keeps only the
    carrier's balls, sorted; its other entries are e.  A vacancy is the
    letter e, and nothing in the carrier exceeds e, so at each vacancy the
    carrier unloads its minimum and loads e as its new largest entry: k
    vacancies in a row are k such wraps, which unload the k least entries
    in order, one slice of the sorted carrier.  Its balls drop in the run's
    first slots, and only they need a slot-to-label lookup; once the
    carrier holds only e, the rest of the run changes nothing.  A ball x
    never wraps: the carrier holds at most the balls swept before x, fewer
    than N, so an e exceeds x.  It unloads the least ball above x, which
    drops at x's slot, in x's own box, or else an e.

    The cost is O(N) for N balls, however wide the window; ``evolve``
    calls it only once a window is sparse.
    """
    if s.is_empty():
        return s
    boxes, held = _box_sweep(s)
    if held:
        raise InvariantError(f"the carrier ended holding {tuple(held)}, not only sentinels")
    return _normal_state(s.n, boxes, s.capacities)


def _box_sweep(s: State) -> tuple[dict[int, Word], list[int]]:
    """The colors the carrier drops over the window, per box in label order, and the balls it ends holding."""
    count = s.ball_count
    label_of_slot = s.capacities.label_of_slot
    labels = sorted(s.balls)
    boxes = list(map(s.balls.__getitem__, labels))
    ends = s.capacities.slot_ends(labels)
    # vacant slots after each box: up to the next box's first ball, then the N that end the window
    gaps = [b - len(balls) - a for a, b, balls in zip(ends, ends[1:], boxes[1:])] + [count]
    held: list[int] = []  # the carrier's balls are held[start:], ascending
    start = 0
    into: list[int] = []  # each drop's box label and color, in slot order
    drops: list[int] = []
    for label, balls, end, gap in zip(labels, boxes, ends, gaps):
        for x in balls:
            i = bisect_right(held, x, start)
            if i < len(held):
                into.append(label)
                drops.append(held[i])
                held[i] = x
            elif len(held) - start < count:  # an e leaves, and x is now the largest ball
                held.append(x)
            else:
                raise InvariantError(f"ball {x} in box {label} found no sentinel in the carrier")
        stop = min(start + gap, len(held))
        if stop > start:
            into.extend(map(label_of_slot, range(end + 1, end + 1 + stop - start)))
            drops.extend(held[start:stop])
            start = stop
    return _boxes(into, drops), held[start:]


def _boxes(labels: Sequence[int], colors: Sequence[int]) -> dict[int, Word]:
    """Boxes from columns in label order, box label over ball color: each label's colors, in column order.

    A box of one ball is a 1-tuple, the normal form that ``State`` stores as
    it is.  Only a repeated label, a box of several balls, takes the second,
    grouping pass.
    """
    boxes = dict(zip(labels, zip(colors)))
    if len(boxes) < len(labels):
        boxes = {}
        start = 0
        for label, m in Counter(labels).items():  # labels ascend, and so do their counts
            boxes[label] = tuple(colors[start:start + m])
            start += m
    return boxes


def mirror(s: State) -> State:
    """Reflect a state: box j becomes box -j, capacity included; color c becomes n+1-c.

    An involution.  Reflecting the line turns rightward moves into leftward
    ones and complementing the colors reverses their order, so the forward
    step of the mirror image is the mirror image of the step backwards.
    """
    profile = s.capacities
    caps = CapacityProfile({-j: cap for j, cap in profile.explicit.items()}, profile.default)
    balls = {-j: tuple(s.n + 1 - c for c in colors) for j, colors in s.balls.items()}
    return State(s.n, balls, caps)


def reverse_step(s: State) -> State:
    """One time step backwards; inverse of ``carrier_step`` on every state."""
    return mirror(carrier_step(mirror(s)))


def label_carrier(s: State) -> Carrier:
    """Labels of the vacant slots in the window, with slot multiplicity.

    Built box by box, not slot by slot.  The window [p, q] starts at the
    first ball, and balls pack to the right of their box, so the first
    occupied box has no vacancy in the window; every later box j has
    capacity(j) - m(j), with m(j) its ball count.  The last ball ends its
    box and q lies N slots past it, so the box holding q is empty and adds
    its slots up to q.
    """
    if s.is_empty():
        raise ValueError("an empty state has no window")
    return _vacant_labels(_columns(s)[0], s.capacities)


def _vacant_labels(top: Sequence[int], capacities: CapacityProfile) -> Carrier:
    """Vacant-slot labels over the window of an ascending top row, a box label per ball; see ``label_carrier``.

    Raises ``ValueError`` if a box holds more balls than its capacity.
    """
    first, last = top[0], top[-1]
    end = capacities.slot_end(last)
    # [p, q] has N slots and N balls more than [p, end], so as many vacancies as [p, end] has slots
    vacancies = end - capacities.slot_end(first) + bisect_right(top, first)
    stop = capacities.label_of_slot(end + len(top)) + 1
    room = capacities.capacity_range(first, stop)
    for label in top:
        room[label - first] -= 1
        if room[label - first] < 0:  # top ascends, so this is the least overfull box
            raise _overfull(label, top.count(label), capacities.capacity(label))
    room[0] = 0  # the window starts at the first ball, past the first box's vacancies
    if max(room) == 1:  # single vacancies: the box holding q is empty, so it has capacity 1 and ends at q
        return tuple(compress(range(first, stop), room))
    # q cuts its box, which may be far wider than the window, even past what ``repeat`` can count
    room[-1] = min(room[-1], vacancies)
    return tuple(islice(chain.from_iterable(map(repeat, range(first, stop), room)), vacancies))


def _label_pass(labels: list[int], carrier: list[int]) -> tuple[list[int], list[int]]:
    """The box-label carrier pass, in place, for a carrier that never wraps; returns both lists.

    ``carrier`` is sorted.  Each label in turn takes the least carrier
    label above it and leaves itself in that place, so the carrier stays
    sorted: one bisection and two list writes per label.  Over a window
    the carrier starts with N labels above every ball, so a label with
    none above it is a fault, and raises ``InvariantError`` where
    ``carrier_pass`` would wrap.
    """
    try:
        for k, x in enumerate(labels):
            i = bisect_right(carrier, x)
            labels[k] = carrier[i]
            carrier[i] = x
    except IndexError:
        raise InvariantError(f"the ball in box {x} found no vacant label above it") from None
    return labels, carrier


def box_label_step(s: State) -> tuple[LabelSequence, Carrier]:
    """Evolve the box-label sequence by a carrier of vacant-slot labels.

    Returns (b', C'): b' is the box-label sequence of ``carrier_step(s)``
    and C' the vacant-slot labels of the evolved state over the same
    window.  The pass is ``_label_pass``, which never wraps.
    """
    if s.is_empty():
        raise ValueError("an empty state has no box-label sequence")
    return tuple(map(tuple, _label_pass(list(box_label_sequence(s)), list(label_carrier(s)))))


def q_evolve(q: Tableau, capacities: CapacityProfile) -> Tableau:
    """One step of the recording tableau, computed from the tableau alone.

    The tableau entries are the occupied box labels, each as often as its
    box holds balls, so the vacant-slot carrier follows from the tableau
    content and the capacity profile, box by box as in ``label_carrier``;
    it then runs along the reading word (rows left to right, bottom to
    top).  That the result is the Q-symbol of the next state is Fukuda's
    theorem (arXiv:math/0105226).  The output word is cut into rows of Q's
    shape, bottom row first, and not bumped again, because the cut is a
    tableau T, and T is then ``tab(out)``:

    - No wrap.  The window ends N slots past the last occupied one, so the
      carrier starts with N labels above every letter, and each of the N
      letters replaces one carrier entry: every letter bumps, as in RSK
      row insertion into the one row the carrier is, so the pass is
      ``_label_pass``, which raises ``InvariantError`` on a wrap.
    - Rows weakly increase.  Inserting x <= x' bumps x' strictly right of
      x, so the unloaded y <= y' (row bumping lemma).
    - Columns strictly increase.  Let a lower row a_1 <= .. <= a_p land at
      positions s_1 < .. < s_p, unloading b_j > a_j, and the row above it,
      c_j < a_j, follow.  By induction c_j bumps at t_j <= s_j, since a_j
      still sits at s_j (t_1 < .. < t_{j-1} <= s_{j-1}); so the entry it
      unloads is at most a_j < b_j.

    The ``Tableau`` row and column checks guard this; a cut that fails
    them raises ``InvariantError``.
    """
    if not q.rows:
        return q
    top = sorted(chain.from_iterable(q.rows))  # _vacant_labels rejects an overfull box
    out = iter(_label_pass(list(word_of(q)), list(_vacant_labels(top, capacities)))[0])
    rows = [tuple(islice(out, len(row))) for row in reversed(q.rows)]
    try:
        return Tableau(tuple(reversed(rows)))
    except ValueError as err:
        raise InvariantError(f"the carrier output is not a tableau of shape {shape(q)}: {err}") from None


def evolve(s: State, steps: int) -> list[State]:
    """Trajectory [s, carrier_step(s), ...] of length steps + 1.

    Stepped by the box-label carrier while the window is dense, then by
    ``carrier_step``; see ``_trajectory``.
    """
    if steps < 0:
        raise ValueError("step count must be nonnegative")
    return list(islice(_trajectory(s), steps + 1))


def _trajectory(s: State) -> Iterator[State]:
    """The states s, carrier_step(s), ... without end.

    While the window holds at most ``_DENSE`` vacant slots per ball, a
    step is ``box_label_step``'s ``_label_pass`` with its carrier carried
    over from the step before.  The balls are read in (color, label)
    order, as ``box_label_sequence`` lists their labels, and their colors,
    ``sorted(colors)``, never change; each ball takes the least vacant
    label above its own and leaves its own label in the carrier.  After
    the pass the carrier holds the vacant labels of the new state over the
    old window; the labels of the slots the window gains at its end are
    appended, and every label at or below the new first ball is cut, since
    the first box packs its balls right and so has no vacancy in the
    window.  That makes each step O(N) plus the slots the window gains.
    On a sparser window, at the start or once the solitons spread, the
    rest of the run is ``carrier_step``, whose cost does not depend on the
    window's width.
    """
    yield s
    count, capacities = s.ball_count, s.capacities
    if count:
        labels, colors = _columns(s)
        carrier: list[int] | None = None
        end = 0  # the window's last slot, q
        while True:
            first, last = min(labels), max(labels)
            first_end, last_end = capacities.slot_end(first), capacities.slot_end(last)
            # [p, q] has N slots and N balls more than [p, d(last)], and the first box's m balls end at d(first)
            vacancies = last_end - first_end + labels.count(first)
            if vacancies > _DENSE * count:
                break
            if carrier is None:
                carrier = list(_vacant_labels(labels, capacities))
                labels, colors = list(box_label_sequence(s)), sorted(colors)
                singles = list(zip(colors))  # each ball's one-ball box, shared by every state of the run
            else:
                # the slots past the old window; those of the first box would only be cut again
                gained = range(max(end, first_end) + 1, last_end + count + 1)
                carrier.extend(map(capacities.label_of_slot, gained))
                del carrier[:bisect_right(carrier, first)]
            end = last_end + count
            if len(carrier) != vacancies:
                raise InvariantError(f"the label carrier holds {len(carrier)} labels, not the {vacancies} vacancies")
            labels, carrier = _label_pass(labels, carrier)
            boxes = dict(zip(labels, singles))
            if len(boxes) < count:  # a box of several balls
                cols = sorted(zip(labels, colors))
                boxes = _boxes([j for j, _ in cols], [c for _, c in cols])
            s = _normal_state(s.n, boxes, capacities)
            yield s
    while True:
        s = carrier_step(s)
        yield s


def reduce_generalized_to_advanced(bw: BiWord, capacities: CapacityProfile) -> BiWord:
    """Replace box labels by absolute slot indices.

    Each occupied box's balls take the last slots of the box, ascending
    with color.  ``capacities.label_of_slot`` maps each slot back to its
    box label, which recovers the generalized bi-word.
    """
    return BiWord(tuple(_packed_slots(bw.top, capacities)), bw.bottom)


def reduce_advanced_to_standard(bw: BiWord) -> BiWord:
    """Relabel the balls 1..N in the dual bi-word's color order.

    The k-th column of the dual (sorted by color, then label) becomes ball
    k, so ball r has color ``sorted(bw.bottom)[r - 1]``, which recovers the
    advanced bi-word.
    """
    order = sorted(range(len(bw)), key=bw.bottom.__getitem__)  # stable: equal colors keep label order
    rank = [0] * len(order)
    for r, k in enumerate(order, 1):
        rank[k] = r
    return BiWord(bw.top, tuple(rank))
