"""``verify.random_state`` against the sampler it replaced.

``rescanning_random_state`` is the sampler as it was: it rebuilt the list
of boxes with room before every ball.  ``random_state`` keeps that list and
drops a box once it fills, so it must draw the same states from the same
random stream and leave the generator in the same state.
"""

import random
from collections import defaultdict

from boxball.bbs import CapacityProfile, State
from boxball.verify import MAX_BALLS, MAX_CAPACITY, MAX_COLORS, MAX_SPAN, random_state


def rescanning_random_state(rng: random.Random) -> State:
    n = rng.randint(1, MAX_COLORS)
    width = rng.randint(1, MAX_SPAN)
    lo = rng.randint(-5, 5)
    labels = list(range(lo, lo + width))
    explicit = {j: rng.randint(1, MAX_CAPACITY) for j in labels if rng.random() < 0.3}
    profile = CapacityProfile(explicit)
    free = {j: profile.capacity(j) for j in labels}
    balls: dict[int, list[int]] = defaultdict(list)
    for _ in range(rng.randint(0, MAX_BALLS)):
        open_boxes = [j for j in labels if free[j]]
        if not open_boxes:
            break
        j = rng.choice(open_boxes)
        balls[j].append(rng.randint(1, n))
        free[j] -= 1
    return State(n, {j: tuple(cs) for j, cs in balls.items()}, profile)


def test_random_state_draws_what_the_rescanning_sampler_drew():
    for seed in range(300):
        rng, old = random.Random(seed), random.Random(seed)
        for _ in range(50):
            s, expected = random_state(rng), rescanning_random_state(old)
            assert s == expected and list(s.balls.items()) == list(expected.balls.items()), seed
        assert rng.getstate() == old.getstate(), seed
