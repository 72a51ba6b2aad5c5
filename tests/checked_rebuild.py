"""Guards on values the package builds past a constructor's conversion.

``assert_as_checked``: ``carrier_step``, ``evolve``'s dense steps and
compact parsing build their states through ``bbs._normal_state``; the
tests hold each such state to what the checked constructor makes of the
same boxes.

``assert_exact_ints``: ``tab``, ``rsk``, ``q_evolve``, ``dual``,
``state_to_biword`` and ``inverse_rsk`` build their tableaux and bi-words
through ``tableau._int_tableau`` and ``rsk._int_biword``, which store their
rows without converting each entry; the tests hold each output to exact
``tuple`` rows of exact ``int`` entries, as ``Tableau`` and ``BiWord`` store.
"""

from __future__ import annotations

from types import MappingProxyType

from boxball.bbs import State
from boxball.rsk import BiWord
from boxball.tableau import Tableau


def assert_as_checked(t: State) -> None:
    """t holds exactly what ``State``'s own check makes of its boxes: labels, colors, their order and types."""
    again = State(t.n, dict(t.balls), t.capacities)
    assert list(t.balls.items()) == list(again.balls.items())
    assert type(t.n) is int and type(t.balls) is MappingProxyType
    for label, colors in t.balls.items():
        assert type(label) is int and type(colors) is tuple and {type(c) for c in colors} == {int}


def assert_exact_ints(value: Tableau | BiWord) -> None:
    """A tableau's rows, or a bi-word's two rows, are exact tuples of exact ints."""
    rows = value.rows if type(value) is Tableau else (value.top, value.bottom)
    assert type(value) in (Tableau, BiWord) and type(rows) is tuple
    for row in rows:
        assert type(row) is tuple and all(type(x) is int for x in row), row
