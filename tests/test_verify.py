"""Each ``verify`` check returns False on a planted defect in the code it checks.

A check that could only return True would pass every mutant of the code
under it, so each failing branch is reached here once, on a fixed case,
by patching one callee in ``boxball.verify``.
"""

import pytest

import boxball.verify as verify
from boxball.bbs import carrier_pass
from boxball.notation import parse_state
from boxball.rsk import BiWord, make_biword

STATE = parse_state("234_15")
BIWORD = make_biword([(1, 2), (2, 1), (2, 3)])  # P and Q differ, so swapping them shows


def drop_final_carrier(carrier, word):
    return carrier_pass(carrier, word)[0], ()


@pytest.mark.parametrize(
    "check, case, callee, defect",
    [
        (verify.check_box_label, STATE, "carrier_step", lambda s: s),  # a step that moves no ball
        (verify.check_carrier_knuth, STATE, "carrier_pass", drop_final_carrier),
        (verify.check_rsk_roundtrip, BIWORD, "inverse_rsk", lambda p, q: BiWord()),
        (verify.check_rsk_roundtrip, BIWORD, "dual", lambda bw: bw),  # so rsk of the dual is (P, Q), not (Q, P)
    ],
    ids=["box-label", "carrier-knuth-slots", "rsk-inverse", "rsk-dual"],
)
def test_a_check_fails_on_a_planted_defect(monkeypatch, check, case, callee, defect):
    assert check(case) is True
    monkeypatch.setattr(verify, callee, defect)
    assert check(case) is False
