"""Command-line front end.

Subcommands: ``evolve`` (print a trajectory), ``rsk`` (bi-word, dual, and
both tableaux of a state), ``qsymbol`` (recording-tableau trajectory),
``trace`` (carrier pass step by step), and ``verify`` (randomized
invariant suites plus optional golden fixtures).

States are read from a file or standard input in either notation; see
``notation``.  All output is plain text so runs diff cleanly against
golden files.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .bbs import (
    box_label_sequence,
    carrier_pass,
    evolve,
    label_carrier,
    q_evolve,
    q_symbol,
    slot_word,
    state_to_biword,
)
from .notation import parse_state, render_trajectory
from .rsk import dual, render_biword, rsk
from .tableau import render_tableau
from .verify import run_verification


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _parse_span(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"expected LO <= HI, got {text!r}")
    return lo, hi


def _load_state(args: argparse.Namespace):
    text = _read_input(args.input)
    first = next((line for line in text.splitlines() if line.strip()), "")
    return parse_state(first, args.colors)


def _emit(args: argparse.Namespace, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_evolve(args: argparse.Namespace) -> int:
    s = _load_state(args)
    states = evolve(s, args.steps)
    notation = args.notation or ("compact" if s.capacities.is_unit else "walled")
    _emit(args, render_trajectory(states, notation, args.span, args.empty))
    return 0


def cmd_rsk(args: argparse.Namespace) -> int:
    s = _load_state(args)
    bw = state_to_biword(s)
    p, q = rsk(bw)
    lines = ["biword:", render_biword(bw), "dual:", render_biword(dual(bw))]
    lines += ["P:", render_tableau(p), "Q:", render_tableau(q)]
    _emit(args, lines)
    return 0


def cmd_qsymbol(args: argparse.Namespace) -> int:
    if args.steps < 0:
        raise ValueError("step count must be nonnegative")
    s = _load_state(args)
    q = q_symbol(s)
    lines = []
    for t in range(args.steps + 1):
        lines += [f"t={t}", render_tableau(q), ""]
        if t < args.steps:
            q = q_evolve(q, s.capacities)
    _emit(args, lines[:-1])
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    s = _load_state(args)
    if s.is_empty():
        _emit(args, ["(empty state: nothing to trace)"])
        return 0
    if args.mode == "labels":
        carrier = label_carrier(s)
        word = box_label_sequence(s)
        show = str
    else:
        carrier = (s.sentinel,) * s.ball_count
        word = slot_word(s)[1]
        show = lambda x: "e" if x == s.sentinel else str(x)  # noqa: E731
    lines = []
    emitted: list[int] = []
    for k in range(len(word) + 1):
        parens = "(" + ",".join(show(c) for c in carrier) + ")"
        head = " ".join(show(x) for x in emitted)
        tail = " ".join(show(x) for x in word[k:])
        lines.append(" ".join(part for part in (head, parens, tail) if part))
        if k < len(word):
            out, carrier = carrier_pass(carrier, (word[k],))
            emitted.extend(out)
    _emit(args, lines)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    fixtures = Path(args.fixtures) if args.fixtures else None
    report = run_verification(args.seed, args.cases, fixtures)
    _emit(args, report.lines())
    return 0 if report.ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every ``main`` call.

    Each ``parse_args`` call returns a new namespace and leaves the parser
    as it was, so one parser serves every command line in a process.
    """
    parser = argparse.ArgumentParser(prog="boxball", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_state_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("input", nargs="?", default="-", help="state file, or - for stdin")
        p.add_argument("--colors", type=int, default=None, help="number of ball colors")
        p.add_argument("--output", default=None, help="write the report here instead of stdout")

    p = sub.add_parser("evolve", help="print a trajectory, one state line per time step")
    add_state_args(p)
    p.add_argument("--steps", type=int, default=1)
    p.add_argument("--notation", choices=["compact", "walled"], default=None)
    p.add_argument("--span", type=_parse_span, default=None, help="label range LO:HI to show")
    p.add_argument("--empty-char", dest="empty", default="_", choices=["_", "e"])

    p = sub.add_parser("rsk", help="print the bi-word, its dual, and the tableau pair")
    add_state_args(p)

    p = sub.add_parser("qsymbol", help="print the recording-tableau trajectory")
    add_state_args(p)
    p.add_argument("--steps", type=int, default=1)

    p = sub.add_parser("trace", help="print a carrier pass step by step")
    add_state_args(p)
    p.add_argument("--mode", choices=["labels", "slots"], default="labels")

    p = sub.add_parser("verify", help="run the invariant suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=100)
    p.add_argument("--fixtures", default=None, help="directory of golden fixture files")
    p.add_argument("--output", default=None)
    return parser


COMMANDS = {
    "evolve": cmd_evolve,
    "rsk": cmd_rsk,
    "qsymbol": cmd_qsymbol,
    "trace": cmd_trace,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = COMMANDS[args.command](args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
