"""The value types' constructor checks against the element-by-element loops they replaced.

Each ``reference_*`` function below is a constructor's check as it ran
before, one Python comparison per element.  ``Tableau``, ``BiWord`` and
``State`` must accept exactly the inputs their reference accepts, store
the same normalized value, and reject the rest with the same first
message.
"""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from boxball.bbs import CapacityProfile, State, biword_to_state
from boxball.rsk import BiWord, _int_biword
from boxball.tableau import Tableau, _int_tableau, tab
from checked_rebuild import assert_exact_ints

letters = st.integers(-3, 5)


def first_error(build) -> str | None:
    try:
        build()
    except ValueError as err:
        return str(err)
    return None


def reference_tableau(rows) -> tuple:
    rows = tuple(tuple(int(x) for x in row) for row in rows)
    for r, row in enumerate(rows):
        if not row:
            raise ValueError(f"row {r + 1} is empty")
        if any(a > b for a, b in zip(row, row[1:])):
            raise ValueError(f"row {r + 1} is not weakly increasing")
        if r > 0:
            above = rows[r - 1]
            if len(row) > len(above):
                raise ValueError(f"row {r + 1} is longer than row {r}")
            if any(x <= above[c] for c, x in enumerate(row)):
                raise ValueError(f"column entries not strictly increasing into row {r + 1}")
    return rows


def reference_biword(top, bottom) -> tuple:
    top = tuple(int(x) for x in top)
    bottom = tuple(int(x) for x in bottom)
    if len(top) != len(bottom):
        raise ValueError(f"row lengths differ: {len(top)} vs {len(bottom)}")
    for k in range(len(top) - 1):
        if top[k] > top[k + 1]:
            raise ValueError(f"top row decreases at column {k + 1}")
        if top[k] == top[k + 1] and bottom[k] > bottom[k + 1]:
            raise ValueError(f"bottom row decreases within equal top entries at column {k + 1}")
    return top, bottom


def reference_state(n, balls, capacities) -> dict:
    if n < 0:
        raise ValueError("number of colors must be nonnegative")
    out = {}
    for label, colors in balls.items():
        label = int(label)
        colors = tuple(sorted(map(int, colors)))
        if not colors:
            continue
        if colors[0] < 1 or colors[-1] > n:
            raise ValueError(f"box {label} holds a color outside 1..{n}")
        cap = capacities.capacity(label)
        if len(colors) > cap:
            raise ValueError(f"box {label} holds {len(colors)} balls but has capacity {cap}")
        out[label] = colors
    return out


@st.composite
def near_tableaux(draw):
    """Row lists that are often tableaux: a tableau with at most one entry moved by up to 2, or arbitrary rows."""
    if draw(st.booleans()):
        return draw(st.lists(st.lists(letters, max_size=4), max_size=4))
    rows = [list(row) for row in tab(draw(st.lists(letters, max_size=10))).rows]
    if rows and draw(st.booleans()):
        r = draw(st.integers(0, len(rows) - 1))
        rows[r][draw(st.integers(0, len(rows[r]) - 1))] += draw(st.integers(-2, 2))
    return rows


@st.composite
def near_biwords(draw):
    """Row pairs that are often bi-words: columns over a few letters, sorted or not, sometimes one short."""
    cols = draw(st.lists(st.tuples(st.integers(-1, 2), st.integers(-1, 2)), max_size=8))
    if draw(st.booleans()):
        cols.sort()
        if len(cols) > 1 and draw(st.booleans()):
            k = draw(st.integers(0, len(cols) - 2))
            cols[k], cols[k + 1] = cols[k + 1], cols[k]
    top, bottom = [i for i, _ in cols], [j for _, j in cols]
    if draw(st.integers(0, 9)) == 0:
        bottom.append(draw(letters))
    return top, bottom


@given(near_tableaux())
def test_tableau_checks_match_the_reference(rows):
    expected = first_error(lambda: reference_tableau(rows))
    assert first_error(lambda: Tableau(tuple(map(tuple, rows)))) == expected
    if expected is None:
        assert Tableau(tuple(map(tuple, rows))).rows == reference_tableau(rows)


@given(near_biwords())
def test_biword_checks_match_the_reference(pair):
    top, bottom = pair
    expected = first_error(lambda: reference_biword(top, bottom))
    assert first_error(lambda: BiWord(tuple(top), tuple(bottom))) == expected
    if expected is None:
        bw = BiWord(tuple(top), tuple(bottom))
        assert (bw.top, bw.bottom) == reference_biword(top, bottom)


def outcome(build, *args):
    """What a constructor makes of its arguments: ("ok", value) or (exception type, message)."""
    try:
        return "ok", build(*args)
    except Exception as err:
        return type(err), str(err)


@given(near_tableaux())
@example([])
@example([[]])
@example([[1, 2], []])
@example([[1], [2, 3]])
@example([[2, 1]])
@example([[1, 2], [1]])
def test_the_int_row_tableau_builder_equals_the_constructor(rows):
    # _int_tableau takes rows of exact ints; it skips Tableau's int() conversion and keeps its check
    built, expected = outcome(_int_tableau, rows), outcome(Tableau, rows)
    assert built == expected
    if built[0] == "ok":
        assert type(built[1]) is Tableau
        assert_exact_ints(built[1])


@given(near_biwords())
@example(([], []))
@example(([1], []))
@example(([2, 1], [0, 0]))
@example(([1, 1], [3, 2]))
def test_the_int_row_biword_builder_equals_the_constructor(pair):
    built, expected = outcome(_int_biword, *pair), outcome(BiWord, *pair)
    assert built == expected
    if built[0] == "ok":
        assert type(built[1]) is BiWord
        assert_exact_ints(built[1])


class Int(int):
    """An int subclass: ``State`` must store it as a plain ``int``."""


def int_likes(lo, hi):
    """Integers in lo..hi, sometimes as an ``Int``, and sometimes a ``bool``."""
    return st.integers(lo, hi) | st.integers(lo, hi).map(Int) | st.booleans()


def typed(balls) -> list:
    """Boxes in label order with the exact type of every label, color and box."""
    return [
        (type(label), label, type(colors), [(type(c), c) for c in colors])
        for label, colors in sorted(balls.items())
    ]


@given(
    st.integers(-1, 4),
    st.dictionaries(
        int_likes(-3, 6),
        st.lists(int_likes(0, 5), max_size=4).flatmap(lambda colors: st.sampled_from([colors, tuple(colors)])),
        max_size=5,
    ),
    st.dictionaries(st.integers(-3, 6), st.integers(1, 3), max_size=4),
    st.integers(1, 3),
)
@example(2, {True: (1,), Int(3): (Int(2),)}, {}, 1)
@example(2, {0: [1], 1: (True,)}, {}, 1)
@example(2, {1: (0,)}, {}, 1)  # color 0 in a normal-form box
def test_state_checks_match_the_reference(n, balls, explicit, default):
    capacities = CapacityProfile(explicit, default)
    expected = first_error(lambda: reference_state(n, balls, capacities))
    assert first_error(lambda: State(n, balls, capacities)) == expected
    if expected is None:
        assert typed(State(n, balls, capacities).balls) == typed(reference_state(n, balls, capacities))


def test_state_reports_a_bad_color_before_an_overfull_box():
    with pytest.raises(ValueError, match=r"^box 4 holds a color outside 1\.\.2$"):
        State(2, {4: (1, 3, 3)}, CapacityProfile({4: 2}))
    with pytest.raises(ValueError, match=r"^box 4 holds a color outside 1\.\.2$"):
        State(2, {4: (3,)})
    with pytest.raises(ValueError, match=r"^box 4 holds 3 balls but has capacity 2$"):
        State(2, {4: (1, 2, 2)}, CapacityProfile({4: 2}))
    # the same boxes built from a bi-word with a repeated label
    with pytest.raises(ValueError, match=r"^box 4 holds a color outside 1\.\.2$"):
        biword_to_state(BiWord((4, 4, 4), (1, 3, 3)), CapacityProfile({4: 2}), 2)
    with pytest.raises(ValueError, match=r"^box 4 holds 3 balls but has capacity 2$"):
        biword_to_state(BiWord((4, 4, 4), (1, 2, 2)), CapacityProfile({4: 2}), 2)
