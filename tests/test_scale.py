"""Seeded checks at 10^4 balls, far beyond the sampler's 12, in both flavors."""

import random

import pytest

from boxball.bbs import carrier_step, p_symbol, q_evolve, q_symbol, reverse_step
from boxball.oracle import naive_original_step
from boxball.verify import large_state


@pytest.mark.parametrize("generalized", [False, True], ids=["standard", "generalized"])
def test_ten_thousand_balls_for_three_steps(generalized):
    s = large_state(random.Random(2024), 10**4, generalized)
    assert s.ball_count == 10**4
    p, q = p_symbol(s), q_symbol(s)
    for _ in range(3):
        after = carrier_step(s)
        assert after == naive_original_step(s)
        assert reverse_step(after) == s
        q_after = q_symbol(after)
        assert q_evolve(q, s.capacities) == q_after
        assert p_symbol(after) == p
        s, q = after, q_after
