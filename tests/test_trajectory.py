"""``evolve`` against the single-step sweep and the oracle.

``evolve`` steps by the box-label carrier while the window is dense and
hands over to ``carrier_step`` once it is not, so these draws cover both
paths and the hand-over between them.
"""

import random
import time

import pytest

import boxball.bbs
from boxball.bbs import CapacityProfile, State, box_label_step, carrier_step, evolve, q_evolve, q_symbol
from boxball.notation import parse_state
from boxball.oracle import naive_original_step
from boxball.tableau import InvariantError
from boxball.verify import large_state, random_state

# seven balls whose solitons spread: the window is dense for 20 steps, then sparse
SPREADING = "3_12__54_1_2"


def swept(s, steps):
    out = [s]
    for _ in range(steps):
        out.append(carrier_step(out[-1]))
    return out


def count_sweeps(monkeypatch):
    calls = []
    step = boxball.bbs.carrier_step
    monkeypatch.setattr(boxball.bbs, "carrier_step", lambda s: calls.append(s) or step(s))
    return calls


def test_evolve_matches_the_sweep_and_the_oracle_on_random_states():
    rng = random.Random(19)
    for k in range(2000):
        s = random_state(rng)
        steps = k % 13
        states = evolve(s, steps)
        assert states == swept(s, steps), (k, s)
        assert all(naive_original_step(a) == b for a, b in zip(states, states[1:])), (k, s)


def dense_walled_state(rng, boxes):
    """Capacities 1..4, each box filled to a random level with colors 1..9: about two vacancies per ball."""
    caps = {j: rng.randint(1, 4) for j in range(1, boxes + 1)}
    balls = {j: tuple(rng.randint(1, 9) for _ in range(rng.randint(0, cap))) for j, cap in caps.items()}
    return State(9, balls, CapacityProfile(caps))


def test_evolve_matches_the_oracle_on_dense_multi_ball_states(monkeypatch):
    # repeated colors in boxes of several balls: the dense steps read the balls in (color, label) order
    sweeps = count_sweeps(monkeypatch)
    rng = random.Random(23)
    for k in range(40):
        s = dense_walled_state(rng, 12)
        states = evolve(s, 6)
        assert all(naive_original_step(a) == b for a, b in zip(states, states[1:])), (k, s)
    assert len(sweeps) <= 40  # of 240 steps: nearly all are dense ones


@pytest.mark.parametrize("flavor", ["standard", "generalized", "dense walled"])
def test_evolve_matches_the_sweep_at_two_thousand_balls(flavor, monkeypatch):
    rng = random.Random(2000)
    if flavor == "dense walled":
        s = dense_walled_state(rng, 800)
    else:
        s = large_state(rng, 2000, flavor == "generalized")
    expected = swept(s, 6)
    assert naive_original_step(expected[-2]) == expected[-1]
    sweeps = count_sweeps(monkeypatch)
    assert evolve(s, 6) == expected
    # large_state's generalized windows hold about five vacancies per ball, past the label path's four
    assert len(sweeps) == (6 if flavor == "generalized" else 0)


def test_evolve_hands_over_to_the_sweep_when_the_solitons_spread(monkeypatch):
    s = parse_state(SPREADING)
    expected = swept(s, 500)
    assert all(naive_original_step(a) == b for a, b in zip(expected, expected[1:]))
    sweeps = count_sweeps(monkeypatch)
    assert evolve(s, 500) == expected
    assert len(sweeps) == 480


def test_a_long_run_stays_linear_after_the_hand_over():
    # about 0.15 s of CPU time; a label carrier carried on past the hand-over grows with the window
    start = time.process_time()
    states = evolve(parse_state(SPREADING), 8000)
    assert time.process_time() - start < 2
    assert len(states) == 8001 and states[-1].ball_count == 7


def evolve_twice(s):
    return evolve(s, 2)


def step_q(s):
    return q_evolve(q_symbol(s), s.capacities)


@pytest.mark.parametrize(
    "defect, message, passes",
    [
        (lambda labels: labels[:-1], "labels, not the", [evolve_twice]),  # one vacancy too few
        # none above any ball: every box-label pass raises rather than wrap a ball to the left
        (
            lambda labels: (labels[0] - 1,) * len(labels),
            "found no vacant label",
            [evolve_twice, box_label_step, step_q],
        ),
    ],
    ids=["dropped", "below"],
)
def test_evolve_raises_when_the_label_carrier_is_wrong(monkeypatch, defect, message, passes):
    vacant_labels = boxball.bbs._vacant_labels
    monkeypatch.setattr(boxball.bbs, "_vacant_labels", lambda top, caps: defect(vacant_labels(top, caps)))
    for text in ("234_15", "|ee5|e125|4|ee3|12|e45|ee|e|eeeee|ee|"):
        for run in passes:
            with pytest.raises(InvariantError, match=message):
                run(parse_state(text))


def test_evolve_reads_no_more_of_a_wide_box_than_the_window(monkeypatch):
    # two balls hop from box to box of a million slots each: the window gains a million slots per step,
    # but only the two past the new last ball are vacant labels of it
    s = State(2, {1: (1, 2)}, CapacityProfile({}, 10**6))
    expected = swept(s, 3)
    assert [set(t.balls) for t in expected] == [{1}, {2}, {3}, {4}]
    calls = []
    label_of_slot = CapacityProfile.label_of_slot
    monkeypatch.setattr(CapacityProfile, "label_of_slot", lambda p, slot: calls.append(slot) or label_of_slot(p, slot))
    assert evolve(s, 3) == expected
    assert len(calls) < 20
