from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from boxball.tableau import Tableau, _bump, render_tableau, shape, tab, word_of

words = st.lists(st.integers(min_value=-3, max_value=7), max_size=12).map(tuple)


def test_bumping_reference_word():
    t = tab((5, 5, 1, 3, 7, 2, 7, 1, 3, 1, 4, 5, 3, 2))
    assert t.rows == ((1, 1, 1, 2, 5), (2, 3, 3, 7), (3, 4, 7), (5, 5))
    assert word_of(t) == (5, 5, 3, 4, 7, 2, 3, 3, 7, 1, 1, 1, 2, 5)
    assert shape(t) == (5, 4, 3, 2)
    assert tab(word_of(t)) == t


def test_row_insert_into_empty():
    assert _bump(()) == ([], [])
    assert _bump((4,)) == ([[4]], [0])


def test_row_insert_bumps_leftmost_larger():
    # 2 bumps the 3 out of the top row, whose box then ends the second row
    assert _bump((1, 3, 2)) == ([[1, 2], [3]], [0, 0, 1])


def test_tab_trivia():
    assert tab(()) == Tableau()
    assert tab((1, 2, 3)).rows == ((1, 2, 3),)
    assert word_of(Tableau()) == ()
    assert shape(Tableau()) == ()
    assert word_of(Tableau([[1, 2], [3]])) == (3, 1, 2)
    assert shape(Tableau([[1, 1, 2], [2, 5], [3]])) == (3, 2, 1)


def test_tableau_word_predicate():
    """A tableau's reading word reads back off its own insertion tableau; other words do not."""
    # 2112 reads off the tableau [[1,1,2],[2]], so the round-trip accepts it
    for w in [(), (1, 1, 2), (2, 1, 1, 2)]:
        assert word_of(tab(w)) == w
    for w in [(1, 2, 1), (1, 3, 2)]:
        assert word_of(tab(w)) != w


@pytest.mark.parametrize(
    "rows",
    [
        ((2, 1),),  # row decreases
        ((1,), (1,)),  # column not strict
        ((1,), (2, 3)),  # lengths not a shape
        ((-1, 0), (-1,)),  # column not strict among non-positive letters
        ((1,), ()),  # empty row
    ],
)
def test_invalid_tableaux_rejected(rows):
    with pytest.raises(ValueError):
        Tableau(rows)


class Letter(int):
    """An int subclass: ``tab`` must store it as a plain ``int``."""


def test_tab_stores_plain_ints():
    t = tab([True, Letter(3), False, 2.0])
    assert t.rows == ((0, 2), (1, 3)) and t == Tableau([[0, 2], [1, 3]])
    assert {type(x) for row in t.rows for x in row} == {int}


def test_letters_of_any_sign():
    t = Tableau(((-1, 0), (2,)))
    assert word_of(t) == (2, -1, 0)
    assert tab(word_of(t)) == t
    rows, ends = _bump(word_of(t) + (-5,))
    assert Tableau(rows) == Tableau([[-5, 0], [-1], [2]])
    assert ends[-1] == 2


@given(words)
def test_tab_word_roundtrip(w):
    t = tab(w)
    assert tab(word_of(t)) == t
    assert len(t) == len(w)
    assert Counter(word_of(t)) == Counter(w)


@given(words)
def test_row_insert_grows_by_one_box(w):
    """``_bump`` gives ``tab``'s rows, and ``ends[k]`` is the row that grew when letter k went in."""
    rows, ends = _bump(w)
    assert rows == [list(row) for row in tab(w).rows]
    assert len(ends) == len(w)
    for k, r in enumerate(ends):
        lengths = [*shape(tab(w[:k])), 0]
        lengths[r] += 1
        assert tuple(filter(None, lengths)) == shape(tab(w[:k + 1]))


def test_text_roundtrip():
    t = Tableau([[1, 1, 2], [2, 5], [3]])
    text = render_tableau(t)
    assert text == "1 1 2\n2 5\n3"
    assert render_tableau(Tableau()) == ""
