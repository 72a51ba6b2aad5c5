from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from boxball.tableau import (
    EMPTY_TABLEAU,
    Tableau,
    is_tableau_word,
    parse_tableau,
    render_tableau,
    row_insert,
    shape,
    tab,
    tableau,
    word_of,
)

words = st.lists(st.integers(min_value=-3, max_value=7), max_size=12).map(tuple)


def test_bumping_reference_word():
    t = tab((5, 5, 1, 3, 7, 2, 7, 1, 3, 1, 4, 5, 3, 2))
    assert t.rows == ((1, 1, 1, 2, 5), (2, 3, 3, 7), (3, 4, 7), (5, 5))
    assert word_of(t) == (5, 5, 3, 4, 7, 2, 3, 3, 7, 1, 1, 1, 2, 5)
    assert shape(t) == (5, 4, 3, 2)
    assert is_tableau_word(word_of(t))


def test_row_insert_into_empty():
    t, pos = row_insert(EMPTY_TABLEAU, 4)
    assert t.rows == ((4,),)
    assert pos == (1, 1)


def test_row_insert_bumps_leftmost_larger():
    t, pos = row_insert(tableau([[1, 3]]), 2)
    assert t.rows == ((1, 2), (3,))
    assert pos == (2, 1)


def test_tab_trivia():
    assert tab(()) == EMPTY_TABLEAU
    assert tab((1, 2, 3)).rows == ((1, 2, 3),)
    assert word_of(EMPTY_TABLEAU) == ()
    assert shape(EMPTY_TABLEAU) == ()
    assert word_of(tableau([[1, 2], [3]])) == (3, 1, 2)
    assert shape(tableau([[1, 1, 2], [2, 5], [3]])) == (3, 2, 1)


def test_tableau_word_predicate():
    assert is_tableau_word(())
    assert is_tableau_word((1, 1, 2))
    # 2112 reads off the tableau [[1,1,2],[2]], so the round-trip accepts it
    assert is_tableau_word((2, 1, 1, 2))
    assert not is_tableau_word((1, 2, 1))
    assert not is_tableau_word((1, 3, 2))


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


def test_letters_of_any_sign():
    t = Tableau(((-1, 0), (2,)))
    assert word_of(t) == (2, -1, 0)
    assert tab(word_of(t)) == t
    assert row_insert(t, -5) == (tableau([[-5, 0], [-1], [2]]), (3, 1))


@given(words)
def test_tab_word_roundtrip(w):
    t = tab(w)
    assert tab(word_of(t)) == t
    assert is_tableau_word(word_of(t))
    assert len(t) == len(w)
    assert Counter(word_of(t)) == Counter(w)


@given(words, st.integers(min_value=-3, max_value=7))
def test_row_insert_grows_by_one_box(w, x):
    t = tab(w)
    grown, (r, c) = row_insert(t, x)
    assert len(grown) == len(t) + 1
    assert grown.rows[r - 1][c - 1] in (x, *w)
    lengths = dict(enumerate(shape(t), start=1))
    assert len(grown.rows[r - 1]) == lengths.get(r, 0) + 1


def test_text_roundtrip():
    t = tableau([[1, 1, 2], [2, 5], [3]])
    text = render_tableau(t)
    assert text == "1 1 2\n2 5\n3"
    assert parse_tableau(text) == t
    assert parse_tableau("") == EMPTY_TABLEAU
    assert render_tableau(EMPTY_TABLEAU) == ""
    assert parse_tableau("1 2\n\n9 9 9") == tableau([[1, 2]])


@given(words)
def test_text_roundtrip_random(w):
    t = tab(w)
    assert parse_tableau(render_tableau(t)) == t
