#!/usr/bin/env python3
"""Time one ``carrier_step`` and one ``q_evolve`` at growing ball counts.

    python3 scripts/growth.py [SIZE ...] [--flavor standard|generalized]

For each size N (default 1600, 16000 and 100000) it draws one state
with ``verify.large_state`` (seed 1), N balls in 2N boxes, and prints one
row: N, the best of 3 wall times of each layer in seconds, and the log-log
slope of each time against N from the row above (1 means linear growth).
Drawing the state and its Q-symbol is not timed.
"""

import argparse
import math
import random
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from boxball.bbs import carrier_step, q_evolve, q_symbol  # noqa: E402
from boxball.verify import large_state  # noqa: E402

COLUMNS = ("balls", "step_s", "step_slope", "q_evolve_s", "q_evolve_slope")
SEED = 1
REPEAT = 3


def best_time(fn):
    times = []
    for _ in range(REPEAT):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return min(times)


def slope(before, after):
    if before is None:
        return "-"
    (n0, t0), (n1, t1) = before, after
    return f"{math.log(t1 / t0) / math.log(n1 / n0):.2f}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sizes", nargs="*", type=int, default=[1600, 16000, 100000])
    parser.add_argument("--flavor", choices=["standard", "generalized"], default="standard")
    args = parser.parse_args(argv)
    rng = random.Random(SEED)
    print(f"# {args.flavor}, seed {SEED}, best of {REPEAT}")
    print(" ".join(COLUMNS))
    last_step = last_q = None
    for n in args.sizes:
        s = large_state(rng, n, args.flavor == "generalized")
        q = q_symbol(s)
        step = (n, best_time(lambda: carrier_step(s)))
        evolved = (n, best_time(lambda: q_evolve(q, s.capacities)))
        print(n, f"{step[1]:.6f}", slope(last_step, step), f"{evolved[1]:.6f}", slope(last_q, evolved))
        last_step, last_q = step, evolved


if __name__ == "__main__":
    main()
