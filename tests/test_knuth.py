import pytest
from hypothesis import given
from hypothesis import strategies as st

from boxball.oracle import elementary_moves, strip_largest
from boxball.tableau import knuth_equivalent, tab

words = st.lists(st.integers(min_value=-3, max_value=4), max_size=8).map(tuple)

CHAIN_A = (5, 1, 5, 2, 4, 3, 1, 2, 4, 5)
CHAIN_B = (5, 4, 1, 5, 2, 1, 3, 2, 4, 5)


def test_single_move_from_reference_chain():
    assert (5, 5, 1, 2, 4, 3, 1, 2, 4, 5) in elementary_moves(CHAIN_A)


def test_moves_need_three_letters():
    assert elementary_moves(()) == set()
    assert elementary_moves((3,)) == set()
    assert elementary_moves((1, 2)) == set()


def test_no_moves_on_increasing_run():
    assert elementary_moves((1, 2, 3)) == set()


def test_reference_pair_equivalent():
    assert knuth_equivalent(CHAIN_A, CHAIN_B)
    assert knuth_equivalent(CHAIN_A, CHAIN_A)
    assert not knuth_equivalent((1, 2), (2, 1))


def test_strip_largest_reference():
    assert strip_largest(CHAIN_A, 3) == (1, 2, 4, 3, 1, 2, 4)
    assert strip_largest(CHAIN_B, 3) == (4, 1, 2, 1, 3, 2, 4)
    assert knuth_equivalent((1, 2, 4, 3, 1, 2, 4), (4, 1, 2, 1, 3, 2, 4))


def test_strip_largest_bounds():
    assert strip_largest((2, 1, 2), 0) == (2, 1, 2)
    assert strip_largest((2, 1, 2), 3) == ()
    with pytest.raises(ValueError):
        strip_largest((1, 2), 3)
    with pytest.raises(ValueError):
        strip_largest((1, 2), -1)


@given(words)
def test_moves_are_symmetric(w):
    for v in elementary_moves(w):
        assert w in elementary_moves(v)


@given(words)
def test_moves_preserve_tableau(w):
    t = tab(w)
    for v in elementary_moves(w):
        assert sorted(v) == sorted(w)
        assert len(v) == len(w)
        assert tab(v) == t


@given(words, st.lists(st.integers(), max_size=6))
def test_strip_largest_keeps_equivalence(w, picks):
    """Walking inside an equivalence class, every truncation stays equivalent."""
    v = w
    for pick in picks:
        moves = sorted(elementary_moves(v))
        if not moves:
            break
        v = moves[pick % len(moves)]
    assert knuth_equivalent(v, w)
    for p in range(len(w) + 1):
        assert knuth_equivalent(strip_largest(w, p), strip_largest(v, p))
