"""Acceptance suite: the golden corpus and the randomized property sweeps.

Each test covers one numbered criterion, checks it exactly (no numeric
tolerances anywhere; everything here is discrete), and prints one
pass/fail line.  Corpus sizes follow the stated requirements; samplers
come from ``boxball.verify`` with fixed seeds so failures reproduce.
"""

import random

from boxball.bbs import (
    box_label_sequence,
    box_label_step,
    carrier_pass,
    carrier_step,
    evolve,
    label_carrier,
    p_symbol,
    q_evolve,
    q_symbol,
    reverse_step,
    slot_word,
    state_to_biword,
)
from boxball.notation import parse_state, render_state, render_trajectory
from boxball.oracle import naive_original_step
from boxball.rsk import dual, inverse_rsk, make_biword, matrix_of, rsk, transpose
from boxball.tableau import Tableau, knuth_equivalent, tab, word_of
from boxball.verify import (
    check_carrier_knuth,
    check_q_independence,
    check_reduction_commutes,
    q_independence_draw,
    random_biword,
    random_state,
    trajectory_block,
)
from knuth_search import bfs_knuth_equivalent, strip_largest


def report(criterion, ok):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


def corpus(count, seed):
    rng = random.Random(seed)
    return [random_state(rng) for _ in range(count)]


def test_criterion_1_bumping_golden():
    t = tab((5, 5, 1, 3, 7, 2, 7, 1, 3, 1, 4, 5, 3, 2))
    ok = t.rows == ((1, 1, 1, 2, 5), (2, 3, 3, 7), (3, 4, 7), (5, 5))
    ok = ok and word_of(t) == (5, 5, 3, 4, 7, 2, 3, 3, 7, 1, 1, 1, 2, 5)
    report("1 bumping golden", ok)


def test_criterion_2_rsk_golden():
    bw = make_biword([(1, 3), (2, 1), (2, 5), (4, 2), (5, 2), (7, 1)])
    p, q = rsk(bw)
    ok = p == Tableau([[1, 1, 2], [2, 5], [3]])
    ok = ok and q == Tableau([[1, 2, 5], [2, 4], [7]])
    ok = ok and rsk(dual(bw)) == (q, p)
    report("2 rsk golden", ok)


def test_criterion_3_knuth_golden():
    a = (5, 1, 5, 2, 4, 3, 1, 2, 4, 5)
    b = (5, 4, 1, 5, 2, 1, 3, 2, 4, 5)
    ok = knuth_equivalent(a, b) and bfs_knuth_equivalent(a, b)
    a0, b0 = strip_largest(a, 3), strip_largest(b, 3)
    ok = ok and (a0, b0) == ((1, 2, 4, 3, 1, 2, 4), (4, 1, 2, 1, 3, 2, 4))
    ok = ok and knuth_equivalent(a0, b0) and bfs_knuth_equivalent(a0, b0)
    report("3 knuth golden", ok)


def test_criterion_4_standard_goldens(fixtures):
    s = parse_state("@1 234_15", colors=5)
    block = trajectory_block(s, history=4, future=5, span=(-18, 31))
    ok = "\n".join(block) + "\n" == (fixtures / "sec3_timeline.txt").read_text()

    e = 6
    carrier = (e,) * 5
    word = (2, 3, 4, e, 1, 5, e, e, e, e, e)
    out, final = carrier_pass(carrier, word)
    ok = ok and out == (e, e, e, 2, 3, e, 1, 4, 5, e, e) and final == carrier
    ok = ok and slot_word(s) == (1, word)

    ok = ok and label_carrier(s) == (4, 7, 8, 9, 10, 11)
    ok = ok and box_label_sequence(s) == (5, 1, 2, 3, 6)
    ok = ok and box_label_step(s) == ((7, 4, 5, 8, 9), (1, 2, 3, 6, 10, 11))
    report("4 standard goldens", ok)


def test_criterion_5_generalized_goldens(fixtures):
    # advanced flavor: five color sub-steps end to end
    fig4 = (fixtures / "sec5_fig4_advanced.txt").read_text().splitlines()
    advanced = parse_state(fig4[0])
    ok = render_state(carrier_step(advanced), (0, len(fig4[0]) - 1), empty="e") == fig4[1]

    # generalized flavor: one step in walled notation
    fig5 = (fixtures / "sec5_fig5_generalized.txt").read_text().splitlines()
    generalized = parse_state(fig5[0])
    ok = ok and render_state(carrier_step(generalized), (1, 10)) == fig5[1]

    # five-step capacity table, byte for byte
    table = (fixtures / "sec6_table1.txt").read_text().splitlines()
    start = parse_state((fixtures / "sec6_input.txt").read_text())
    states = evolve(start, 4)
    ok = ok and render_trajectory(states) == table

    # all five bi-words and dual bi-words
    biword_rows = [
        ((1, 2, 2, 2, 3, 4, 5, 5, 6, 6), (5, 1, 2, 5, 4, 3, 1, 2, 4, 5)),
        ((2, 3, 4, 4, 4, 5, 6, 7, 7, 8), (5, 5, 1, 2, 4, 3, 1, 2, 4, 5)),
        ((4, 4, 5, 5, 6, 6, 9, 9, 9, 9), (5, 5, 1, 4, 2, 3, 1, 2, 4, 5)),
        ((5, 5, 6, 6, 7, 7, 10, 10, 11, 12), (5, 5, 1, 4, 2, 3, 1, 2, 4, 5)),
        ((6, 6, 7, 8, 9, 9, 12, 12, 12, 13), (5, 5, 4, 1, 2, 3, 1, 2, 4, 5)),
    ]
    dual_rows = [
        (2, 5, 2, 5, 4, 3, 6, 1, 2, 6),
        (4, 6, 4, 7, 5, 4, 7, 2, 3, 8),
        (5, 9, 6, 9, 6, 5, 9, 4, 4, 9),
        (6, 10, 7, 10, 7, 6, 11, 5, 5, 12),
        (8, 12, 9, 12, 9, 7, 12, 6, 6, 13),
    ]
    for state, (top, bottom), labels in zip(states, biword_rows, dual_rows):
        bw = state_to_biword(state)
        ok = ok and (bw.top, bw.bottom) == (top, bottom)
        mirrored = dual(bw)
        ok = ok and mirrored.top == (1, 1, 2, 2, 3, 4, 4, 5, 5, 5)
        ok = ok and mirrored.bottom == labels

    # conserved insertion tableau
    p_ref = Tableau([[1, 1, 2, 4, 5], [2, 3], [4, 5], [5]])
    ok = ok and all(p_symbol(x) == p_ref for x in states)

    # recording-tableau sequence; each tableau's content must be exactly
    # the occupied box labels of its state, which pins every entry
    q_refs = [
        Tableau([[1, 2, 2, 6, 6], [2, 3], [4, 5], [5]]),
        Tableau([[2, 3, 4, 7, 8], [4, 4], [5, 7], [6]]),
        Tableau([[4, 4, 6, 9, 9], [5, 5], [6, 9], [9]]),
        Tableau([[5, 5, 7, 11, 12], [6, 6], [7, 10], [10]]),
        Tableau([[6, 6, 9, 12, 13], [7, 9], [8, 12], [12]]),
    ]
    ok = ok and [q_symbol(x) for x in states] == q_refs
    for before, q_ref in zip(states, q_refs[1:]):
        ok = ok and q_evolve(q_symbol(before), before.capacities) == q_ref

    # box-label chain on the full profile: output pinned, carrier derived
    # from the definition over the window [3, 26]
    ok = ok and label_carrier(start) == (2, 4, 4, 6, 7, 7, 8, 9, 9, 9, 9, 9, 10, 10)
    labels_next, final = box_label_step(start)
    ok = ok and labels_next == (4, 6, 4, 7, 5, 4, 7, 2, 3, 8)
    ok = ok and final == (1, 2, 2, 2, 5, 6, 6, 9, 9, 9, 9, 9, 10, 10)
    report("5 generalized goldens", ok)


def test_criterion_6_p_conservation():
    ok = True
    for s in corpus(1000, seed=101):
        trajectory = evolve(s, 10)
        reference = p_symbol(s)
        ok = ok and all(p_symbol(x) == reference for x in trajectory)
    report("6 p-conservation 1000x10", ok)


def test_criterion_7_algorithm_equivalence():
    ok = True
    for s in corpus(1000, seed=102):
        first = carrier_step(s)
        ok = ok and first == naive_original_step(s)
        second = carrier_step(first)
        ok = ok and second == naive_original_step(first)
    report("7 algorithm equivalence 1000", ok)


def test_criterion_8_q_independence():
    rng = random.Random(103)
    ok = True
    for _ in range(300):
        ok = ok and check_q_independence(q_independence_draw(rng))
    report("8 q-independence 300", ok)


def test_criterion_9_reversibility():
    ok = all(reverse_step(carrier_step(s)) == s for s in corpus(1000, seed=104))
    report("9 reversibility 1000", ok)


def test_criterion_10_rsk_bijection():
    rng = random.Random(105)
    ok = True
    for _ in range(500):
        bw = random_biword(rng)
        p, q = rsk(bw)
        ok = ok and inverse_rsk(p, q) == bw
        ok = ok and dual(dual(bw)) == bw
        ok = ok and matrix_of(dual(bw)) == transpose(matrix_of(bw))
    report("10 rsk bijection 500", ok)


def test_criterion_11_carrier_knuth():
    # the golden passes of criteria 4 and 5
    golden_passes = [
        ((6,) * 5, (2, 3, 4, 6, 1, 5, 6, 6, 6, 6, 6)),
        ((4, 7, 8, 9, 10, 11), (5, 1, 2, 3, 6)),
        ((2, 4, 4, 6, 7, 7, 8, 9, 9, 9, 9, 9, 10, 10), (2, 5, 2, 5, 4, 3, 6, 1, 2, 6)),
    ]
    ok = True
    for carrier, word in golden_passes:
        out, final = carrier_pass(carrier, word)
        ok = ok and tab(carrier + word) == tab(out + final)
    # every slot-word and box-label pass over the property corpora
    for seed in (101, 102, 104):
        ok = ok and all(check_carrier_knuth(s) for s in corpus(1000, seed=seed))
    report("11 carrier-knuth", ok)


def test_criterion_12_reduction_commutation():
    rng = random.Random(106)
    ok = all(check_reduction_commutes(random_state(rng)) for _ in range(200))
    report("12 reduction commutation 200", ok)
