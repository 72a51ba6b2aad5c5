import pytest
from hypothesis import given
from hypothesis import strategies as st

from boxball.rsk import (
    BiWord,
    EMPTY_BIWORD,
    _rightmost_below,
    dual,
    inverse_rsk,
    make_biword,
    matrix_of,
    rsk,
    transpose,
)
from boxball.tableau import EMPTY_TABLEAU, InvariantError, Tableau, shape, tab

columns = st.lists(
    st.tuples(st.integers(min_value=-3, max_value=6), st.integers(min_value=-3, max_value=6)),
    max_size=10,
)
biwords = columns.map(make_biword)

REFERENCE = make_biword([(1, 3), (2, 1), (2, 5), (4, 2), (5, 2), (7, 1)])


def test_make_biword_sorts_columns():
    assert REFERENCE.top == (1, 2, 2, 4, 5, 7)
    assert REFERENCE.bottom == (3, 1, 5, 2, 2, 1)
    assert make_biword([]) == EMPTY_BIWORD
    assert make_biword([(2, 5), (2, 1)]) == BiWord((2, 2), (1, 5))


def test_biword_validation():
    with pytest.raises(ValueError):
        BiWord((2, 1), (1, 1))
    with pytest.raises(ValueError):
        BiWord((1, 1), (2, 1))
    with pytest.raises(ValueError):
        BiWord((1,), (1, 2))


def test_dual_reference():
    d = dual(REFERENCE)
    assert d.top == (1, 1, 2, 2, 3, 5)
    assert d.bottom == (2, 7, 4, 5, 1, 2)
    assert dual(EMPTY_BIWORD) == EMPTY_BIWORD
    d2 = dual(BiWord((1, 2, 3, 5, 6), (2, 3, 4, 1, 5)))
    assert d2 == BiWord((1, 2, 3, 4, 5), (5, 1, 2, 3, 6))


def test_rsk_reference_pair():
    p, q = rsk(REFERENCE)
    assert p == Tableau([[1, 1, 2], [2, 5], [3]])
    assert q == Tableau([[1, 2, 5], [2, 4], [7]])
    assert rsk(dual(REFERENCE)) == (q, p)


def test_rsk_trivia():
    assert rsk(EMPTY_BIWORD) == (EMPTY_TABLEAU, EMPTY_TABLEAU)
    p, q = rsk(BiWord((1, 2, 3, 5, 6), (2, 3, 4, 1, 5)))
    assert p == Tableau([[1, 3, 4, 5], [2]])
    assert q == Tableau([[1, 2, 3, 6], [5]])


def test_rsk_raises_when_bumping_skips_a_column(monkeypatch):
    import boxball.rsk as module

    bump = module._bump
    # both letters reported as ending in the top row, where P has one box per row
    monkeypatch.setattr(module, "_bump", lambda word: (bump(word)[0], [0] * len(word)))
    with pytest.raises(InvariantError, match=r"^Q's row lengths \[2, 0\] differ from P's \[1, 1\]$"):
        rsk(BiWord((1, 2), (2, 1)))


def test_package_attribute_rsk_is_the_submodule(monkeypatch):
    import types

    import boxball
    import boxball.rsk as module

    assert isinstance(module, types.ModuleType) and boxball.rsk is module
    patched = lambda word: ([], [])  # noqa: E731
    monkeypatch.setattr(boxball.rsk, "_bump", patched)
    assert module._bump is patched


def test_rightmost_below():
    row = [1, 3, 3, 5]
    assert [_rightmost_below(row, x) for x in (2, 3, 4, 5, 6)] == [0, 0, 2, 2, 3]
    for x in (0, 1):
        with pytest.raises(ValueError, match="no smaller entry"):
            _rightmost_below(row, x)


def test_inverse_rsk_reference():
    p = Tableau([[1, 1, 2], [2, 5], [3]])
    q = Tableau([[1, 2, 5], [2, 4], [7]])
    assert inverse_rsk(p, q) == REFERENCE
    assert inverse_rsk(EMPTY_TABLEAU, EMPTY_TABLEAU) == EMPTY_BIWORD


def test_inverse_rsk_rejects_bad_input():
    with pytest.raises(ValueError):
        inverse_rsk(Tableau([[1, 2]]), Tableau([[1], [2]]))
    # a recording filling that breaks column-strictness never gets built
    with pytest.raises(ValueError):
        inverse_rsk(Tableau([[1, 1], [2, 2]]), Tableau([[1, 4], [2, 3]]))


def test_matrix_reference():
    assert matrix_of(REFERENCE) == {
        (1, 3): 1, (2, 1): 1, (2, 5): 1, (4, 2): 1, (5, 2): 1, (7, 1): 1,
    }
    assert matrix_of(EMPTY_BIWORD) == {}
    assert matrix_of(BiWord((2, 2), (5, 5))) == {(2, 5): 2}


@given(biwords)
def test_rsk_roundtrip(bw):
    p, q = rsk(bw)
    assert shape(p) == shape(q)
    assert len(p) == len(bw)
    assert p == tab(bw.bottom)
    assert inverse_rsk(p, q) == bw


@given(biwords)
def test_dual_involution_and_symmetry(bw):
    assert dual(dual(bw)) == bw
    p, q = rsk(bw)
    assert rsk(dual(bw)) == (q, p)
    assert matrix_of(dual(bw)) == transpose(matrix_of(bw))


@given(biwords)
def test_matrix_total(bw):
    assert sum(matrix_of(bw).values()) == len(bw)

