import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from boxball.bbs import State, carrier_step
from boxball.notation import parse_state, render_state
from boxball.oracle import naive_original_step
from boxball.tableau import knuth_equivalent
from boxball.verify import random_state
from knuth_search import SearchInconclusive, bfs_knuth_equivalent

words = st.lists(st.integers(min_value=-3, max_value=4), max_size=8).map(tuple)


def test_bfs_reference_pair():
    assert bfs_knuth_equivalent((5, 1, 5, 2, 4, 3, 1, 2, 4, 5), (5, 4, 1, 5, 2, 1, 3, 2, 4, 5))
    assert bfs_knuth_equivalent((1, 2, 4, 3, 1, 2, 4), (4, 1, 2, 1, 3, 2, 4))


def test_bfs_trivia():
    assert bfs_knuth_equivalent((2, 1, 2), (2, 1, 2))
    assert not bfs_knuth_equivalent((1, 2), (2, 1))
    assert not bfs_knuth_equivalent((1, 2), (1, 2, 3))
    assert not bfs_knuth_equivalent((1, 1), (1, 2))
    assert bfs_knuth_equivalent((), ())


def test_bfs_budget_signal():
    with pytest.raises(SearchInconclusive):
        bfs_knuth_equivalent((3, 1, 2, 4, 3, 1, 2), (1, 2, 3, 4, 3, 1, 2), max_frontier=2)


@given(words, words)
def test_bfs_agrees_with_tableau_equality(a, b):
    assert bfs_knuth_equivalent(a, b) == knuth_equivalent(a, b)


def test_naive_step_advanced_reference(fixtures):
    lines = (fixtures / "sec5_fig4_advanced.txt").read_text().splitlines()
    before = parse_state(lines[0])
    after = naive_original_step(before)
    assert render_state(after, (0, len(lines[0]) - 1), empty="e") == lines[1]


def test_naive_step_empty():
    assert naive_original_step(State(3, {})) == State(3, {})


def test_naive_step_matches_fast_path():
    rng = random.Random(17)
    for _ in range(200):
        s = random_state(rng)
        assert naive_original_step(s) == carrier_step(s)
