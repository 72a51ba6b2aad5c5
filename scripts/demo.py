#!/usr/bin/env python3
"""Walk through the golden corpus on stdout.

Runs the standard five-ball example (timeline, carrier trace, RSK pair)
and the five-step generalized run with per-box capacities, printing the
conserved insertion tableau and the evolving recording tableau at each
time.  Everything printed here is covered by the test suite; this script
just makes it easy to look at.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from boxball import (  # noqa: E402
    box_label_step,
    dual,
    evolve,
    label_carrier,
    parse_state,
    p_symbol,
    q_symbol,
    render_biword,
    render_state,
    render_tableau,
    render_trajectory,
    state_to_biword,
)


def banner(title):
    print()
    print(title)
    print("-" * len(title))


def main():
    banner("standard flavor: 234_15 in boxes 1..6, ten time steps")
    s = parse_state("@1 234_15", colors=5)
    for line in render_trajectory(evolve(s, 9), (0, 45)):
        print(line)

    banner("its bi-word, dual bi-word, and tableau pair")
    bw = state_to_biword(s)
    print(render_biword(bw))
    print()
    print(render_biword(dual(bw)))
    print()
    print(render_tableau(p_symbol(s)))
    print()
    print(render_tableau(q_symbol(s)))

    banner("box-label carrier pass")
    print("carrier:", label_carrier(s))
    labels_next, final = box_label_step(s)
    print("labels in, labels out:", dual(bw).bottom, "->", labels_next)
    print("final carrier:", final)

    banner("generalized flavor: capacities 3,4,1,3,2,3,2,1,5,2,1,6,3,15,7")
    start = parse_state(
        "|ee5|e125|4|ee3|12|e45|ee|e|eeeee|ee|e|eeeeee|eee|eeeeeeeeeeeeeee|eeeeeee|"
    )
    states = evolve(start, 4)
    for k, line in enumerate(render_trajectory(states, (1, 13)), start=1):
        print(f"time {k}: {line}")

    banner("conserved insertion tableau")
    print(render_tableau(p_symbol(start)))

    for k, state in enumerate(states, start=1):
        banner(f"recording tableau at time {k}")
        print(render_tableau(q_symbol(state)))
        print("state:", render_state(state))


if __name__ == "__main__":
    main()
