"""Each ``verify`` check returns False on a planted defect in the code it checks.

A check that could only return True would pass every mutant of the code
under it, so each failing branch is reached here once, on a fixed case,
by patching one callee in ``boxball.verify``.  The replay line that a
failing case prints is checked here too, on unit and wider profiles.
"""

import re

import pytest

import boxball.verify as verify
from boxball.bbs import CapacityProfile, State, carrier_pass
from boxball.notation import parse_state
from boxball.rsk import BiWord, make_biword

STATE = parse_state("234_15")
# labels 10..15 lie above every color and the sentinel 6, so no label carrier holds the sentinel
HIGH_LABELS = parse_state("@10 234_15")
GENERALIZED = parse_state("|e12|ee3|4|eee|e|")
BIWORD = make_biword([(1, 2), (2, 1), (2, 3)])  # P and Q differ, so swapping them shows


def drop_final_carrier(carrier, word):
    return carrier_pass(carrier, word)[0], ()


def drop_final_label_carrier(carrier, word):
    """Drops the final carrier of the label pass only: a slot-word carrier is all sentinels."""
    out, final = carrier_pass(carrier, word)
    return (out, final) if HIGH_LABELS.sentinel in carrier else (out, ())


def rank_in_reverse(bw):
    """Numbers the balls N..1 along the bi-word instead of in color order."""
    return make_biword(zip(bw.top, range(len(bw), 0, -1)))


@pytest.mark.parametrize(
    "check, case, callee, defect",
    [
        (verify.check_box_label, STATE, "carrier_step", lambda s: s),  # a step that moves no ball
        (verify.check_carrier_knuth, STATE, "carrier_pass", drop_final_carrier),
        (verify.check_rsk_roundtrip, BIWORD, "inverse_rsk", lambda p, q: BiWord()),
        (verify.check_rsk_roundtrip, BIWORD, "dual", lambda bw: bw),  # so rsk of the dual is (P, Q), not (Q, P)
        (lambda s: verify.check_p_conservation(s, 5), STATE, "p_symbol", lambda s: s),  # each state its own "P"
        (verify.check_algorithms_agree, STATE, "naive_original_step", lambda s: s),
        (verify.check_reversible, STATE, "reverse_step", lambda s: s),
        (verify.check_q_evolution, STATE, "q_evolve", lambda q, caps: q),  # Q stands still
        (verify.check_reduction_commutes, GENERALIZED, "reduce_advanced_to_standard", rank_in_reverse),
        (verify.check_q_independence, STATE, "q_evolve", lambda q, caps: q),
        (verify.check_carrier_knuth, HIGH_LABELS, "carrier_pass", drop_final_label_carrier),
    ],
    ids=[
        "box-label", "carrier-knuth-slots", "rsk-inverse", "rsk-dual", "p-conservation", "algorithm-equivalence",
        "reversibility", "q-evolution", "reduction-commutation", "q-independence", "carrier-knuth-labels",
    ],
)
def test_a_check_fails_on_a_planted_defect(monkeypatch, check, case, callee, defect):
    assert check(case) is True
    monkeypatch.setattr(verify, callee, defect)
    assert check(case) is False


def test_the_q_checks_pass_on_an_empty_state_with_a_non_unit_profile():
    # no guard: q_evolve, q_symbol, both reductions and biword_to_state take the empty state
    empty = State(3, {}, CapacityProfile({2: 3}))
    assert verify.check_q_evolution(empty) is True
    assert verify.check_reduction_commutes(empty) is True


@pytest.mark.parametrize(
    "case, text",
    [
        (State(2, {-3: (1,), -1: (2,)}), "@-3 1_2"),
        (State(12, {5: (12,)}), "@5 12 _"),  # one wide token: a trailing vacancy keeps the token mode
        (make_biword([(-2, 3), (1, 1), (4, 2)]), "@-2 3__1__2"),  # distinct top letters: every box holds one
        (State(2, {-3: (1,), -1: (2,)}, CapacityProfile({4: 2})), "@-3|1|e|2|e|e|e|e|ee|"),
        (BIWORD, "|2|13|"),
    ],
    ids=["unit-state", "unit-wide-token", "distinct-top-biword", "wider-state", "repeated-top-biword"],
)
def test_the_replay_line_writes_the_case_in_its_own_notation(case, text):
    # compact exactly on a unit profile, walled otherwise; either re-parses to the case through the command
    m = re.fullmatch(r"echo '(.+)' \| boxball (\w+)(?: --colors (\d+))?", verify._replay_command(case))
    assert m[1] == text
    if isinstance(case, BiWord):
        assert (m[2], m[3]) == ("rsk", None)
        assert verify.state_to_biword(parse_state(text)) == case
    else:
        assert m[2] == "evolve"
        assert parse_state(text, int(m[3])) == case
