"""``assert_as_checked``: the guard on states built past ``State``'s own check.

``carrier_step``, ``evolve``'s dense steps and compact parsing build their
states through ``bbs._normal_state``; the tests hold each such state to
what the checked constructor makes of the same boxes.
"""

from __future__ import annotations

from types import MappingProxyType

from boxball.bbs import State


def assert_as_checked(t: State) -> None:
    """t holds exactly what ``State``'s own check makes of its boxes: labels, colors, their order and types."""
    again = State(t.n, dict(t.balls), t.capacities)
    assert list(t.balls.items()) == list(again.balls.items())
    assert type(t.n) is int and type(t.balls) is MappingProxyType
    for label, colors in t.balls.items():
        assert type(label) is int and type(colors) is tuple and {type(c) for c in colors} == {int}
