"""Command-line front end.

Subcommands: ``evolve`` (print a trajectory), ``rsk`` (bi-word, dual, and
both tableaux of a state), ``qsymbol`` (recording-tableau trajectory),
``dual`` (dual bi-word), ``trace`` (carrier pass step by step), and
``verify`` (randomized invariant suites plus optional golden fixtures).

States are read from a file or standard input in either notation; see
``notation``.  All output is plain text so runs diff cleanly against
golden files.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
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
    window,
)
from .notation import parse_state, render_trajectory
from .rsk import dual, render_biword, rsk
from .tableau import render_tableau
from .verify import run_verification


@dataclass
class RunConfig:
    command: str
    steps: int = 0
    notation: str | None = None
    seed: int = 0
    cases: int = 100
    input_path: str = "-"
    output_path: str | None = None
    colors: int | None = None
    span: tuple[int, int] | None = None
    empty: str = "_"
    mode: str = "labels"
    fixtures: str | None = None


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _parse_span(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    return int(lo), int(hi)


def _load_state(config: RunConfig):
    text = _read_input(config.input_path)
    first = next((line for line in text.splitlines() if line.strip()), "")
    return parse_state(first, config.colors)


def _emit(config: RunConfig, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if config.output_path:
        Path(config.output_path).write_text(text)
    else:
        sys.stdout.write(text)


def _pick_notation(config: RunConfig, states) -> str:
    if config.notation:
        return config.notation
    walled = any(
        s.capacities.explicit or s.capacities.default != 1 for s in states
    )
    return "walled" if walled else "compact"


def cmd_evolve(config: RunConfig) -> int:
    states = evolve(_load_state(config), config.steps)
    notation = _pick_notation(config, states)
    anchor = config.span is None  # an explicit window is already anchored
    _emit(config, render_trajectory(states, notation, config.span, config.empty, anchor))
    return 0


def cmd_rsk(config: RunConfig) -> int:
    s = _load_state(config)
    bw = state_to_biword(s)
    p, q = rsk(bw)
    lines = ["biword:", render_biword(bw), "dual:", render_biword(dual(bw))]
    lines += ["P:", render_tableau(p), "Q:", render_tableau(q)]
    _emit(config, lines)
    return 0


def cmd_dual(config: RunConfig) -> int:
    _emit(config, [render_biword(dual(state_to_biword(_load_state(config))))])
    return 0


def cmd_qsymbol(config: RunConfig) -> int:
    s = _load_state(config)
    q = q_symbol(s)
    lines = []
    for t in range(config.steps + 1):
        lines += [f"t={t}", render_tableau(q), ""]
        if t < config.steps:
            q = q_evolve(q, s.capacities)
    _emit(config, lines[:-1])
    return 0


def cmd_trace(config: RunConfig) -> int:
    s = _load_state(config)
    if s.is_empty():
        _emit(config, ["(empty state: nothing to trace)"])
        return 0
    if config.mode == "labels":
        carrier = label_carrier(s)
        word = box_label_sequence(s)
        show = str
    else:
        p, q = window(s)
        carrier = (s.sentinel,) * s.ball_count
        word = slot_word(s, p, q)
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
    _emit(config, lines)
    return 0


def cmd_verify(config: RunConfig) -> int:
    fixtures = Path(config.fixtures) if config.fixtures else None
    report = run_verification(config.seed, config.cases, fixtures)
    _emit(config, report.lines())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--span", default=None, help="label range LO:HI to show")
    p.add_argument("--empty-char", dest="empty", default="_", choices=["_", "e"])

    p = sub.add_parser("rsk", help="print the bi-word, its dual, and the tableau pair")
    add_state_args(p)

    p = sub.add_parser("dual", help="print the dual bi-word")
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


def config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(command=args.command)
    for name in ("steps", "notation", "seed", "cases", "colors", "empty", "mode", "fixtures"):
        if hasattr(args, name):
            setattr(config, name, getattr(args, name))
    if getattr(args, "input", None) is not None:
        config.input_path = args.input
    if getattr(args, "output", None) is not None:
        config.output_path = args.output
    if getattr(args, "span", None):
        config.span = _parse_span(args.span)
    return config


COMMANDS = {
    "evolve": cmd_evolve,
    "rsk": cmd_rsk,
    "dual": cmd_dual,
    "qsymbol": cmd_qsymbol,
    "trace": cmd_trace,
    "verify": cmd_verify,
}


def run(config: RunConfig) -> int:
    return COMMANDS[config.command](config)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = run(config_from_args(args))
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
