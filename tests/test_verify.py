"""Each ``verify`` check returns False on a planted defect in the code it checks.

A check that could only return True would pass every mutant of the code
under it, so each failing branch is reached here once, on a fixed case,
by patching one callee in ``boxball.verify``.
"""

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
