import random
import time
from bisect import bisect_right, insort
from itertools import accumulate

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from boxball.bbs import (
    BiWord,
    CapacityProfile,
    State,
    UNIT_CAPACITY,
    _vacant_labels,
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
from boxball.oracle import naive_original_step
from boxball.rsk import dual, inverse_rsk, rsk
from boxball.tableau import InvariantError, Tableau, knuth_equivalent, shape, tab, word_of
from boxball.verify import (
    check_box_label,
    check_carrier_knuth,
    check_reduction_commutes,
    large_state,
    random_state,
)
from checked_rebuild import assert_as_checked, assert_exact_ints

# the running 5-color example: 234_15 in boxes 1..6
SMALL = State(5, {1: (2,), 2: (3,), 3: (4,), 5: (1,), 6: (5,)})
SMALL_NEXT = State(5, {4: (2,), 5: (3,), 7: (1,), 8: (4,), 9: (5,)})

# the 15-box capacity profile 3,4,1,3,2,3,2,1,5,2,1,6,3,15,7
WIDE_CAPS = CapacityProfile(
    {1: 3, 2: 4, 3: 1, 4: 3, 5: 2, 6: 3, 7: 2, 8: 1, 9: 5, 10: 2, 11: 1, 12: 6, 13: 3, 14: 15, 15: 7}
)
WIDE = State(
    5,
    {1: (5,), 2: (1, 2, 5), 3: (4,), 4: (3,), 5: (1, 2), 6: (4, 5)},
    WIDE_CAPS,
)


def corpus(count, seed=0):
    rng = random.Random(seed)
    return [random_state(rng) for _ in range(count)]


# ---------------------------------------------------------------------------
# capacity profile and slot machinery

def test_capacity_profile_normalizes():
    p = CapacityProfile({3: 1, 4: 2}, 1)
    assert p.explicit == {4: 2}
    assert p.capacity(3) == 1 and p.capacity(4) == 2
    with pytest.raises(ValueError):
        CapacityProfile({1: 0})
    with pytest.raises(ValueError):
        CapacityProfile({}, 0)


def _summed_slot_end(p, label):
    """d(label) as a sum of capacity(k), box by box over -60..60; every key lies in -50..50."""
    lo, hi = sorted((0, label))  # d sums the boxes lo+1..hi, negated when label < 0
    near = range(max(lo + 1, -60), min(hi, 60) + 1)
    total = sum(p.capacity(k) for k in near) + p.default * (hi - lo - len(near))
    return total if label >= 0 else -total


@given(
    st.dictionaries(st.integers(-50, 50), st.integers(1, 5), max_size=12),
    st.integers(1, 3),
    st.lists(st.integers(-60, 60) | st.integers(-10**6, 10**6), min_size=1, max_size=8),
)
@example({-1: 4, 2: 3}, 2, [0, -6, 5])
@example({0: 3, 2: 2}, 1, [0, 1, 2])  # an explicit box at label 0
def test_slot_ranges_tile_the_line(explicit, default, points):
    p = CapacityProfile(explicit, default)
    assert p.slot_end(0) == 0
    previous_end = p.slot_end(-53)
    for label in range(-52, 53):
        start, end = p.slot_range(label)
        assert start == previous_end + 1
        assert end - start + 1 == p.capacity(label)
        assert [p.label_of_slot(slot) for slot in range(start, end + 1)] == [label] * (end - start + 1)
        previous_end = end
    for x in points:
        assert p.slot_end(x) == _summed_slot_end(p, x)
        start, end = p.slot_range(x)
        assert start == _summed_slot_end(p, x - 1) + 1
        assert p.label_of_slot(start) == p.label_of_slot(end) == x
        start, end = p.slot_range(p.label_of_slot(x))
        assert start <= x <= end


def test_profile_table_is_not_part_of_the_value():
    a = CapacityProfile({-3: 1, 4: 3}, 2)
    b = CapacityProfile({4: 3, -3: 1, 7: 2}, 2)
    assert a == b and hash(a) == hash(b)
    assert repr(a) == "CapacityProfile(explicit=mappingproxy({-3: 1, 4: 3}), default=2)"
    shown = repr(b)
    for name in ("_labels", "_ends", "_excess"):
        object.__setattr__(b, name, ())
    assert a == b and hash(a) == hash(b) and repr(b) == shown


class _Unscannable(dict):
    """Answers ``get`` but refuses to be walked."""

    def __iter__(self):
        raise AssertionError("the explicit capacities were walked")

    items = keys = values = __iter__


def test_hot_paths_do_not_walk_the_explicit_capacities():
    for s in (WIDE, mirror(WIDE), State(3, {-2: (1, 3), 0: (2,)}, CapacityProfile({-2: 2, 5: 4}, 2))):
        expected = (carrier_step(s).balls, q_evolve(q_symbol(s), s.capacities), label_carrier(s))
        profile = CapacityProfile(s.capacities.explicit, s.capacities.default)
        object.__setattr__(profile, "explicit", _Unscannable(profile.explicit))
        guarded = State(s.n, s.balls, profile)
        got = (carrier_step(guarded).balls, q_evolve(q_symbol(guarded), profile), label_carrier(guarded))
        assert got == expected


@given(
    st.dictionaries(st.integers(-6, 6), st.integers(1, 4), max_size=6),
    st.integers(1, 3),
    st.integers(-40, 40),
)
def test_label_of_slot_inverts_slot_range(explicit, default, slot):
    p = CapacityProfile(explicit, default)
    label = p.label_of_slot(slot)
    start, end = p.slot_range(label)
    assert start <= slot <= end


@given(
    st.dictionaries(st.integers(-20, 20), st.integers(1, 4), max_size=6),
    st.integers(1, 3),
    st.integers(-25, 25),
    st.integers(0, 30),
)
def test_capacity_range_matches_capacity(explicit, default, start, length):
    p = CapacityProfile(explicit, default)
    assert p.capacity_range(start, start + length) == [p.capacity(j) for j in range(start, start + length)]


@given(
    st.dictionaries(st.integers(-20, 20), st.integers(1, 4), max_size=6),
    st.integers(1, 3),
    st.lists(st.integers(-30, 30), max_size=12),
)
def test_slot_ends_matches_slot_end(explicit, default, labels):
    p = CapacityProfile(explicit, default)
    assert p.slot_ends(labels) == [p.slot_end(j) for j in labels]


def test_state_validation():
    with pytest.raises(ValueError):
        State(2, {0: (3,)})  # color out of range
    with pytest.raises(ValueError):
        State(2, {0: (1, 1)})  # capacity 1 holds two balls
    s = State(3, {5: [2, 1], 7: ()}, CapacityProfile({5: 2}))
    assert s.balls == {5: (1, 2)}  # sorted, empties dropped
    # the color count is truncated to an int, as labels, colors and capacities are
    s = State(2.0, {1: (1,), 2: (2,)})
    assert slot_word(s) == (1, (1, 2, 3, 3))
    assert {type(x) for x in slot_word(s)[1]} == {int}
    assert type(State(True, {1: (1,)}).n) is int


def test_values_are_hashable_and_read_only():
    same = State(5, {6: [5], 5: (1,), 3: (4,), 2: (3,), 1: (2,)})
    assert same == SMALL and hash(same) == hash(SMALL)
    assert len({SMALL, same, SMALL_NEXT}) == 2
    assert hash(CapacityProfile({3: 1, 4: 2})) == hash(CapacityProfile({4: 2}))
    assert len({WIDE, State(5, dict(WIDE.balls), CapacityProfile(dict(WIDE_CAPS.explicit)))}) == 1
    with pytest.raises(TypeError):
        SMALL.balls[99] = (7,)
    with pytest.raises(TypeError):
        WIDE_CAPS.explicit[1] = 9
    assert 99 not in SMALL.balls and WIDE_CAPS.capacity(1) == 3


# ---------------------------------------------------------------------------
# windows and bi-words

def test_window_reference_values():
    """The window [p, p + len - 1] of each state, from the first ball to N slots past the last."""
    windows = [(p, len(word)) for p, word in map(slot_word, (SMALL, WIDE, State(1, {0: (1,)})))]
    assert windows == [(1, 11), (3, 24), (0, 2)]
    for window_of in (slot_word, label_carrier):
        with pytest.raises(ValueError, match="an empty state has no window"):
            window_of(State(3, {}))


def test_state_biword_reference():
    assert state_to_biword(SMALL) == BiWord((1, 2, 3, 5, 6), (2, 3, 4, 1, 5))
    assert state_to_biword(State(5, {})) == BiWord()
    assert state_to_biword(WIDE) == BiWord(
        (1, 2, 2, 2, 3, 4, 5, 5, 6, 6), (5, 1, 2, 5, 4, 3, 1, 2, 4, 5)
    )


def test_biword_to_state_roundtrip():
    assert biword_to_state(state_to_biword(SMALL), UNIT_CAPACITY, 5) == SMALL
    assert biword_to_state(BiWord(), UNIT_CAPACITY, 5) == State(5, {})
    with pytest.raises(ValueError, match="box 1"):
        biword_to_state(BiWord((1, 1), (2, 3)), UNIT_CAPACITY, 5)


def test_box_label_sequence_reference():
    assert box_label_sequence(SMALL) == (5, 1, 2, 3, 6)
    assert box_label_sequence(WIDE) == (2, 5, 2, 5, 4, 3, 6, 1, 2, 6)


def test_q_symbol_is_the_recording_tableau_of_the_state_biword():
    """Q read off the dual word equals the recording tableau that rsk builds (Knuth's symmetry)."""
    rng = random.Random(3)
    states = [random_state(rng) for _ in range(500)]
    states += [large_state(rng, balls, generalized) for balls in (100, 400) for generalized in (False, True)]
    for s in states:
        assert q_symbol(s) == rsk(state_to_biword(s))[1]


# ---------------------------------------------------------------------------
# carrier passes

def test_carrier_pass_slot_example():
    e = 6
    out, final = carrier_pass((e,) * 5, (2, 3, 4, e, 1, 5, e, e, e, e, e))
    assert out == (e, e, e, 2, 3, e, 1, 4, 5, e, e)
    assert final == (e,) * 5


def test_carrier_pass_label_example():
    out, final = carrier_pass((4, 7, 8, 9, 10, 11), (5, 1, 2, 3, 6))
    assert out == (7, 4, 5, 8, 9)
    assert final == (1, 2, 3, 6, 10, 11)


def test_carrier_pass_edges():
    assert carrier_pass((3, 1), ()) == ((), (1, 3))
    with pytest.raises(ValueError):
        carrier_pass((), (1,))


@given(
    st.lists(st.integers(1, 9), min_size=1, max_size=8),
    st.lists(st.integers(1, 9), max_size=10),
)
def test_carrier_pass_is_knuth_rearrangement(carrier, word):
    out, final = carrier_pass(carrier, word)
    assert len(out) == len(word)
    assert len(final) == len(carrier)
    assert sorted(carrier + word) == sorted(out + final)
    assert tab(tuple(sorted(carrier)) + tuple(word)) == tab(out + final)


def reference_carrier_pass(carrier, word):
    """The carrier as a sorted list that drops the unloaded element and re-inserts the loaded one."""
    load = sorted(carrier)
    out = []
    for x in word:
        i = bisect_right(load, x)
        if i == len(load):
            i = 0
        out.append(load[i])
        del load[i]
        insort(load, x)
    return tuple(out), tuple(load)


@given(
    st.lists(st.integers(-3, 10), min_size=1, max_size=6),
    st.lists(st.integers(-3, 10), max_size=60),
)
@example([2, 2, 2], [2, 2, 2, 2, 2, 2, 2, 2, 2, 2])
@example([-3, 10], [10, 10, -3, 10, 10, 10, -3, -3, 5, 10])
def test_carrier_pass_matches_a_reinserting_reference(carrier, word):
    assert carrier_pass(carrier, word) == reference_carrier_pass(carrier, word)


# ---------------------------------------------------------------------------
# one-step evolution

def test_original_step_reference():
    for step in (carrier_step, naive_original_step):
        assert step(SMALL) == SMALL_NEXT
        assert step(State(4, {})) == State(4, {})


def test_original_step_generalized_reference():
    expected = State(
        5,
        {2: (5,), 3: (5,), 4: (1, 2, 4), 5: (3,), 6: (1,), 7: (2, 4), 8: (5,)},
        WIDE_CAPS,
    )
    assert carrier_step(WIDE) == naive_original_step(WIDE) == expected


def test_carrier_step_matches_original():
    assert carrier_step(SMALL) == SMALL_NEXT
    assert carrier_step(State(2, {})) == State(2, {})
    for s in corpus(150, seed=11):
        assert carrier_step(s) == naive_original_step(s)


def test_carrier_step_raises_when_the_carrier_keeps_a_ball(monkeypatch):
    import boxball.bbs as bbs

    sweep = bbs._box_sweep
    monkeypatch.setattr(bbs, "_box_sweep", lambda s: (sweep(s)[0], [1]))
    with pytest.raises(InvariantError, match="sentinels"):
        carrier_step(SMALL)


def test_carrier_step_raises_when_a_ball_finds_no_sentinel(monkeypatch):
    # one sentinel for SMALL's five balls: the ball in box 2 meets a carrier holding only ball 2
    monkeypatch.setattr(State, "ball_count", property(lambda s: 1))
    with pytest.raises(InvariantError, match="box 2 found no sentinel"):
        carrier_step(SMALL)


def test_carrier_step_builds_one_state_per_step(monkeypatch):
    states = (SMALL, WIDE, mirror(WIDE))
    expected = list(map(naive_original_step, states))
    built = []
    check = State.__post_init__
    monkeypatch.setattr(State, "__post_init__", lambda s: built.append(s) or check(s))
    for s, after in zip(states, expected):
        built.clear()
        # the step's one State is built in normal form, past the box-by-box check
        assert carrier_step(s) == after and len(built) == 0


def test_carrier_step_makes_no_per_box_slot_end_calls(monkeypatch):
    # 500 balls on the even boxes 0..998, three explicit capacities
    s = State(500, {2 * k: (500 - k,) for k in range(500)}, CapacityProfile({1: 2, 501: 3, 1003: 4}))
    expected = naive_original_step(s)
    calls = []
    slot_end = CapacityProfile.slot_end
    monkeypatch.setattr(CapacityProfile, "slot_end", lambda p, label: calls.append(label) or slot_end(p, label))
    assert carrier_step(s) == expected
    assert len(calls) <= 2


@pytest.mark.parametrize(
    "capacities",
    [UNIT_CAPACITY, CapacityProfile({-(10**12): 2, 0: 2, 5 * 10**11: 4, 10**12: 3, 10**12 + 1: 2})],
)
def test_carrier_step_is_linear_in_the_balls_on_a_sparse_state(capacities):
    # a window of about 10**12 boxes: a sweep that read it box by box or slot by slot would not finish
    gap = 10**12
    s = State(2, {0: (2,), gap: (1,)}, capacities)
    after = State(2, {1: (2,), gap + 1: (1,)}, capacities)
    assert carrier_step(s) == after
    assert reverse_step(after) == s
    # the window holds far more than a few vacancies per ball, so evolve hands over to the sweep at once
    assert evolve(s, 2) == [s, after, State(2, {2: (2,), gap + 2: (1,)}, capacities)]


def test_carrier_step_fills_a_deep_box_in_linear_time():
    # 10**5 balls move from one box into the next: about 0.15 s of CPU time when each drop costs O(1),
    # about 18 s when each drop copies the box's drops so far
    m = 10**5
    capacities = CapacityProfile({0: m, 1: m})
    start = time.process_time()
    after = carrier_step(State(1, {0: (1,) * m}, capacities))
    assert biword_to_state(state_to_biword(after), capacities, 1) == after
    assert time.process_time() - start < 3
    assert after == State(1, {1: (1,) * m}, capacities)


def test_q_evolve_makes_no_per_box_capacity_calls(monkeypatch):
    # 500 balls on the even boxes 0..998, three explicit capacities: a window of about 1000 boxes
    s = State(500, {2 * k: (500 - k,) for k in range(500)}, CapacityProfile({1: 2, 501: 3, 1003: 4}))
    q = q_symbol(s)
    expected = q_symbol(carrier_step(s))
    calls = []
    capacity = CapacityProfile.capacity
    monkeypatch.setattr(CapacityProfile, "capacity", lambda p, label: calls.append(label) or capacity(p, label))
    assert q_evolve(q, s.capacities) == expected
    assert len(calls) <= 3


@st.composite
def run_states(draw):
    """Nonempty states whose vacancy runs stress the box walk.

    Boxes follow one another at distances 1..14 from a first label in
    -12..3, so adjacent boxes (no vacancy between) and gaps longer than the
    ball count (the carrier drains mid-window) both occur; the default
    capacity is 1..4, boxes may be partly filled, and explicit capacities
    fall in the gaps as well as on the boxes.
    """
    n = draw(st.integers(1, 4))
    labels = list(accumulate([draw(st.integers(-12, 3))] + draw(st.lists(st.integers(1, 14), max_size=6))))
    explicit = draw(st.dictionaries(st.integers(labels[0] - 2, labels[-1] + 12), st.integers(1, 4), max_size=6))
    capacities = CapacityProfile(explicit, draw(st.integers(1, 4)))
    sizes = {label: st.lists(st.integers(1, n), min_size=1, max_size=capacities.capacity(label)) for label in labels}
    return State(n, draw(st.fixed_dictionaries(sizes)), capacities)


@given(run_states())
@example(State(2, {-5: (1,), 9: (2,)}))  # a gap far longer than N
@example(State(3, {0: (3,), 1: (2,), 2: (1,), 6: (3,)}))  # adjacent boxes, then a drained carrier
@example(State(2, {-1: (2,), 1: (1, 2)}, CapacityProfile({0: 3, 1: 4}, 2)))  # partly filled, capacity in the gap
def test_carrier_step_walks_vacancy_runs_like_the_ball_rule(s):
    assert carrier_step(s) == naive_original_step(s)


def test_box_label_step_reference():
    assert box_label_step(SMALL) == ((7, 4, 5, 8, 9), (1, 2, 3, 6, 10, 11))
    assert box_label_step(State(1, {0: (1,)})) == ((1,), (0,))
    with pytest.raises(ValueError):
        box_label_step(State(1, {}))


def test_box_label_step_generalized_reference():
    assert label_carrier(WIDE) == (2, 4, 4, 6, 7, 7, 8, 9, 9, 9, 9, 9, 10, 10)
    labels_next, final = box_label_step(WIDE)
    assert labels_next == (4, 6, 4, 7, 5, 4, 7, 2, 3, 8)
    assert final == (1, 2, 2, 2, 5, 6, 6, 9, 9, 9, 9, 9, 10, 10)


def test_box_label_step_tracks_original_step():
    for s in corpus(120, seed=5):
        assert check_box_label(s)


def test_reverse_step_reference():
    assert reverse_step(SMALL_NEXT) == SMALL
    assert reverse_step(State(3, {})) == State(3, {})


def test_reverse_undoes_step():
    for s in corpus(200, seed=3):
        assert reverse_step(carrier_step(s)) == s


def test_step_undoes_reverse():
    for s in corpus(200, seed=4):
        assert carrier_step(reverse_step(s)) == s


def test_mirror_reference_and_involution():
    assert mirror(SMALL) == State(5, {-1: (4,), -2: (3,), -3: (2,), -5: (5,), -6: (1,)})
    mirrored = mirror(WIDE)
    assert mirrored.capacities.capacity(-2) == 4 and mirrored.capacities.capacity(2) == 1
    assert mirrored.balls[-2] == (1, 4, 5)
    for s in corpus(200, seed=6):
        assert mirror(mirror(s)) == s


def test_q_evolve_reference_chain():
    q1 = Tableau([[1, 2, 2, 6, 6], [2, 3], [4, 5], [5]])
    q2 = q_evolve(q1, WIDE_CAPS)
    assert q2 == Tableau([[2, 3, 4, 7, 8], [4, 4], [5, 7], [6]])
    q3 = q_evolve(q2, WIDE_CAPS)
    assert q3 == Tableau([[4, 4, 6, 9, 9], [5, 5], [6, 9], [9]])
    assert q_evolve(Tableau([]), WIDE_CAPS) == Tableau([])


def test_q_evolve_matches_evolved_symbol():
    for s in corpus(100, seed=9):
        if s.is_empty():
            continue
        assert q_evolve(q_symbol(s), s.capacities) == q_symbol(carrier_step(s))
        assert shape(q_symbol(s)) == shape(p_symbol(s))


def test_q_evolve_rejects_overfull_boxes():
    with pytest.raises(ValueError, match="box 1 holds 2 balls but has capacity 1"):
        q_evolve(Tableau([[1, 1]]), UNIT_CAPACITY)
    with pytest.raises(ValueError, match="box 2 holds 2 balls but has capacity 1"):
        q_evolve(Tableau([[1, 2, 2]]), UNIT_CAPACITY)
    with pytest.raises(ValueError, match="box 3 holds 3 balls but has capacity 2"):
        q_evolve(Tableau([[1, 3, 3], [3]]), CapacityProfile({3: 2}, 4))


def test_q_evolve_raises_when_the_shape_changes(monkeypatch):
    import boxball.bbs as bbs

    monkeypatch.setattr(bbs, "_label_pass", lambda labels, carrier: (sorted(labels), []))
    with pytest.raises(InvariantError, match="shape"):
        q_evolve(Tableau([[1, 2], [3]]), UNIT_CAPACITY)


def test_carrier_knuth_consistency():
    for s in corpus(100, seed=13):
        assert check_carrier_knuth(s)


def test_carrier_pass_respects_knuth_classes():
    """Over a vacant-label carrier, equivalent label words give equivalent
    outputs and the same final carrier.

    This needs the carrier regime the dynamics guarantee (an element
    above every letter survives the whole pass, so each exchange bumps);
    for arbitrary carriers the statement is false, e.g. carrier (1,)
    with words 212 and 221.
    """
    from knuth_search import elementary_moves

    rng = random.Random(31)
    checked = 0
    while checked < 120:
        s = random_state(rng)
        if s.is_empty():
            continue
        checked += 1
        carrier = label_carrier(s)
        labels = box_label_sequence(s)
        other = labels
        for _ in range(4):
            moves = sorted(elementary_moves(other))
            if not moves:
                break
            other = moves[rng.randrange(len(moves))]
        out_a, final_a = carrier_pass(carrier, labels)
        out_b, final_b = carrier_pass(carrier, other)
        assert final_a == final_b
        assert knuth_equivalent(out_a, out_b)


# ---------------------------------------------------------------------------
# translation

def shifted(s, k):
    """The same state with every ball and every explicit capacity k boxes to the right."""
    caps = CapacityProfile({j + k: c for j, c in s.capacities.explicit.items()}, s.capacities.default)
    return State(s.n, {j + k: colors for j, colors in s.balls.items()}, caps)


def shifted_tableau(t, k):
    return Tableau([[x + k for x in row] for row in t.rows])


def test_translation_equivariance():
    """Results at labels <= 0 are the results at positive labels, moved back.

    Each state is compared with its copy moved wholly to labels >= 1 and
    with a copy moved far to the left, in both directions.
    """
    states = [s for s in corpus(150, seed=41) if not s.is_empty()]
    states.append(shifted(WIDE, -9))
    states.append(State(3, {0: (2,), -1: (3,), -3: (1, 3, 3)}, CapacityProfile({-3: 3}, 2)))
    assert sum(min(s.balls) <= 0 for s in states) > 50
    for s in states:
        lowest = min(min(s.balls), min(s.capacities.explicit, default=0))
        for k in (1 - lowest, -20):
            moved = shifted(s, k)
            assert p_symbol(moved) == p_symbol(s)
            assert q_symbol(moved) == shifted_tableau(q_symbol(s), k)
            assert q_evolve(q_symbol(moved), moved.capacities) == shifted_tableau(
                q_evolve(q_symbol(s), s.capacities), k
            )
            labels, final = box_label_step(s)
            assert box_label_step(moved) == (
                tuple(b + k for b in labels), tuple(c + k for c in final)
            )
            assert carrier_step(moved) == shifted(carrier_step(s), k)


# ---------------------------------------------------------------------------
# slot expansion details

def test_slot_word_packs_vacancies_left():
    assert slot_word(WIDE) == (3, (5, 6, 1, 2, 5, 4, 6, 6, 3, 1, 2, 6, 4, 5) + (6,) * 10)
    assert slot_word(SMALL) == (1, (2, 3, 4, 6, 1, 5) + (6,) * 5)
    # the occupied (slot, color) pairs, ascending, as the advanced bi-word's columns
    advanced = reduce_generalized_to_advanced(state_to_biword(SMALL), UNIT_CAPACITY)
    assert list(zip(advanced.top, advanced.bottom)) == [(1, 2), (2, 3), (3, 4), (5, 1), (6, 5)]


def test_vacant_labels_reference():
    assert _vacant_labels(state_to_biword(WIDE).top, WIDE_CAPS) == (2, 4, 4, 6, 7, 7, 8, 9, 9, 9, 9, 9, 10, 10)
    # slots -3, -2, 0 in the window [-3, 3]
    assert _vacant_labels((-3, -2, 0), UNIT_CAPACITY) == (-1, 1, 2, 3)
    # default capacity 2 and one box of capacity 1: slots 0, 1, 2, 6 in the window [0, 10]
    assert _vacant_labels((0, 1, 1, 3), CapacityProfile({5: 1}, 2)) == (2, 2, 3, 4, 4, 5, 6)


@pytest.mark.parametrize("default", [10**6, 10**9])
def test_the_vacant_carrier_takes_no_more_of_a_wide_box_than_the_window(default):
    """One ball before boxes of a huge default capacity: the carrier is the window's one vacant slot."""
    import tracemalloc

    s = State(1, {1: (1,)}, CapacityProfile({1: 1}, default))
    tracemalloc.start()
    try:
        assert label_carrier(s) == (2,)
        assert q_evolve(q_symbol(s), s.capacities) == Tableau([[2]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_a_box_wider_than_an_index_cuts_the_carrier_like_any_wide_box():
    """``|1|+10^20``: the box past the ball holds more vacancies than ``repeat`` can count (2^63 - 1)."""
    huge, wide = (State(1, {1: (1,)}, CapacityProfile({1: 1}, default)) for default in (10**20, 5))
    assert label_carrier(huge) == label_carrier(wide) == (2,)
    assert q_evolve(q_symbol(huge), huge.capacities) == q_evolve(q_symbol(wide), wide.capacities)


def _slot_by_slot(s):
    """Occupied slots, window slot labels and vacant labels, one slot at a time.

    A reference independent of the box walk: the vacant carrier is the
    labels of the window's slots minus the occupied slots.
    """
    occupied = []
    for label in sorted(s.balls):
        end = s.capacities.slot_range(label)[1]
        occupied.extend(range(end - len(s.balls[label]) + 1, end + 1))
    p, q = occupied[0], occupied[-1] + len(occupied)
    labels = {slot: s.capacities.label_of_slot(slot) for slot in range(p, q + 1)}
    taken = set(occupied)
    vacant = tuple(label for slot, label in labels.items() if slot not in taken)
    return tuple(occupied), labels, vacant


@st.composite
def profiled_states(draw):
    """Nonempty states over profiles with default 1..3 and explicit entries in -20..20."""
    explicit = draw(st.dictionaries(st.integers(-20, 20), st.integers(1, 5), max_size=8))
    capacities = CapacityProfile(explicit, draw(st.integers(1, 3)))
    n = draw(st.integers(1, 4))
    labels = draw(st.sets(st.integers(-20, 20), min_size=1, max_size=8))
    sizes = {label: st.lists(st.integers(1, n), min_size=1, max_size=capacities.capacity(label)) for label in labels}
    return State(n, draw(st.fixed_dictionaries(sizes)), capacities)


@given(profiled_states())
@example(WIDE)
@example(State(2, {-4: (1, 2), 0: (2,)}, CapacityProfile({-4: 3, 7: 4}, 2)))
def test_box_walk_matches_the_slot_by_slot_window(s):
    import boxball.bbs as bbs

    occupied, labels, vacant = _slot_by_slot(s)
    assert label_carrier(s) == vacant
    p, word = slot_word(s)
    assert (p, len(word)) == (occupied[0], len(labels))
    assert tuple(slot for slot, x in enumerate(word, p) if x != s.sentinel) == occupied
    expected = q_symbol(carrier_step(s))
    carriers = []

    label_pass = bbs._label_pass

    def spy(labels, carrier):
        carriers.append(tuple(carrier))
        return label_pass(labels, carrier)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bbs, "_label_pass", spy)
        assert q_evolve(q_symbol(s), s.capacities) == expected
    assert carriers == [vacant]
    advanced = reduce_generalized_to_advanced(state_to_biword(s), s.capacities)
    assert advanced.top == occupied
    assert tuple(map(s.capacities.label_of_slot, advanced.top)) == state_to_biword(s).top
    # the two symbols as defined through the state's bi-word, kept as references
    assert p_symbol(s) == tab(state_to_biword(s).bottom)
    assert box_label_sequence(s) == dual(state_to_biword(s)).bottom


@given(profiled_states(), st.integers(0, 40))
@example(State(3, {0: (1, 3), 1: (2,), 3: (1, 2)}, CapacityProfile({0: 2, 3: 2})), 40)  # dense, then handed over
@example(WIDE, 3)
def test_stepped_states_equal_their_checked_rebuild(s, steps):
    # carrier_step and evolve's dense steps build their states past State's check
    assert_as_checked(carrier_step(s))
    for t in evolve(s, steps):
        assert_as_checked(t)


@given(profiled_states())
@example(WIDE)
@example(State(3, {0: (1, 3), 1: (2,), 3: (1, 2)}, CapacityProfile({0: 2, 3: 2})))
def test_box_label_sequence_is_the_columns_sorted_by_color_then_label(s):
    # multi-ball boxes and repeated colors: among equal colors the labels must ascend
    colors = [c for label in sorted(s.balls) for c in s.balls[label]]
    labels = [label for label in sorted(s.balls) for _ in s.balls[label]]
    assert box_label_sequence(s) == tuple(j for _, j in sorted(zip(colors, labels)))


@given(profiled_states())
@example(WIDE)
def test_tableau_side_outputs_hold_exact_ints(s):
    # these build through the int-row builders, which store their rows without int()
    bw = state_to_biword(s)
    p, q = rsk(bw)
    for value in (bw, dual(bw), p, q, tab(bw.bottom), q_evolve(q, s.capacities), inverse_rsk(p, q)):
        assert_exact_ints(value)


# ---------------------------------------------------------------------------
# trajectories

def test_evolve_agrees_across_algorithms():
    states = evolve(SMALL, 3)
    assert len(states) == 4
    assert states[0] == SMALL and states[1] == SMALL_NEXT
    assert all(b == naive_original_step(a) for a, b in zip(states, states[1:]))
    assert evolve(SMALL, 0) == [SMALL]
    with pytest.raises(ValueError):
        evolve(SMALL, -1)


def test_p_symbol_conserved_on_reference():
    states = evolve(WIDE, 4)
    reference = Tableau([[1, 1, 2, 4, 5], [2, 3], [4, 5], [5]])
    assert [p_symbol(s) for s in states] == [reference] * 5


# ---------------------------------------------------------------------------
# reductions

def test_reduce_generalized_reference():
    bw = state_to_biword(WIDE)
    advanced = reduce_generalized_to_advanced(bw, WIDE_CAPS)
    assert advanced.top == (3, 5, 6, 7, 8, 11, 12, 13, 15, 16)
    assert advanced.bottom == bw.bottom
    assert tuple(map(WIDE_CAPS.label_of_slot, advanced.top)) == bw.top
    assert WIDE_CAPS.label_of_slot(26) == 10
    with pytest.raises(ValueError, match="box 1"):
        reduce_generalized_to_advanced(BiWord((1, 1), (1, 2)), UNIT_CAPACITY)


def test_reduce_generalized_identity_on_unit_capacities():
    bw = state_to_biword(SMALL)
    advanced = reduce_generalized_to_advanced(bw, UNIT_CAPACITY)
    assert advanced == bw
    window = range(advanced.top[0], advanced.top[-1] + len(bw) + 1)
    assert all(UNIT_CAPACITY.label_of_slot(i) == i for i in window)
    assert reduce_generalized_to_advanced(BiWord(), UNIT_CAPACITY) == BiWord()


def test_reduce_advanced_reference():
    advanced = BiWord((3, 5, 6, 7, 8, 11, 12, 13, 15, 16), (5, 1, 2, 5, 4, 3, 1, 2, 4, 5))
    standard = reduce_advanced_to_standard(advanced)
    assert standard.bottom == (8, 1, 3, 9, 6, 5, 2, 4, 7, 10)
    colors = sorted(advanced.bottom)
    assert tuple(colors[r - 1] for r in standard.bottom) == advanced.bottom
    # the standard system's dual lists the slots by rank
    assert dual(standard).top == tuple(range(1, 11))


def test_reduce_advanced_on_already_standard():
    bw = state_to_biword(SMALL)
    standard = reduce_advanced_to_standard(bw)
    assert standard == bw
    assert sorted(bw.bottom) == [1, 2, 3, 4, 5]
    assert reduce_advanced_to_standard(BiWord()) == BiWord()


def test_reduction_commutes_with_evolution():
    assert check_reduction_commutes(WIDE)
    for s in corpus(60, seed=21):
        assert check_reduction_commutes(s)


# ---------------------------------------------------------------------------
# Q-symbol independence of P

def test_superstandard_tableaux_are_standard_and_differ_off_a_line():
    from boxball.verify import superstandard_tableaux

    assert superstandard_tableaux((3, 2)) == (Tableau([[1, 2, 3], [4, 5]]), Tableau([[1, 3, 5], [2, 4]]))
    for outline in [(1,), (4,), (1, 1, 1), (2, 1), (2, 2), (3, 2), (2, 2, 1), (3, 2, 1), (4, 4, 2, 1)]:
        pair = superstandard_tableaux(outline)
        for t in pair:
            assert shape(t) == outline
            assert sorted(word_of(t)) == list(range(1, sum(outline) + 1))
        assert (pair[0] != pair[1]) == (len(outline) > 1 and outline[0] > 1)


def test_q_independence_draw_skips_exactly_the_shapes_with_one_standard_tableau():
    # those are the one-row and the one-column shapes; each call returns the first other draw
    from boxball.verify import q_independence_draw, random_state

    replayed, drawn = random.Random(22), random.Random(22)
    skipped = 0
    for _ in range(500):
        while True:
            s = random_state(replayed)
            outline = () if s.is_empty() else shape(q_symbol(s))
            if len(outline) > 1 and outline[0] > 1:
                break
            skipped += 1
        assert q_independence_draw(drawn) == s
        assert drawn.getstate() == replayed.getstate()  # just past the returned draw
    assert skipped  # the stream holds shapes to skip


def test_q_symbol_ignores_colors():
    # two insertion tableaux sharing one recording tableau: the evolved
    # recording tableaux agree
    from boxball.rsk import inverse_rsk

    q0 = Tableau([[1, 2], [4]])
    for p_a, p_b in [(Tableau([[1, 2], [3]]), Tableau([[1, 3], [2]]))]:
        s_a = biword_to_state(inverse_rsk(p_a, q0), UNIT_CAPACITY, 3)
        s_b = biword_to_state(inverse_rsk(p_b, q0), UNIT_CAPACITY, 3)
        assert q_symbol(s_a) == q_symbol(s_b) == q0
        assert s_a != s_b
        assert q_symbol(carrier_step(s_a)) == q_symbol(carrier_step(s_b))
