"""Output checks for benchmark jobs; they run outside the timed region.

Each check returns None when the output is right and a one-line reason
otherwise.  State lines are read by the small reader below rather than by
the program's own parser, so a rendering fault cannot hide behind a
matching parsing fault; the program is used only for the reference
values the checks name (P-symbols, the oracle step, the Q-symbol of the
T-step state, inverse RSK).
"""

from __future__ import annotations

import re

_ANCHOR = re.compile(r"^@(-?\d+)\s*")
_EMPTY = ("_", "e")
_BALL = re.compile(r"[^_e]")
_SPACE = re.compile(r"\s")


def read_state(line: str) -> dict[int, tuple[int, ...]]:
    """Box label -> ascending colors of the occupied boxes of one state line."""
    body = line.strip()
    anchor = None
    m = _ANCHOR.match(body)
    if m:
        anchor = int(m.group(1))
        body = body[m.end():]
    boxes: dict[int, tuple[int, ...]] = {}
    if body.startswith("|"):
        segments = body[1:body.rindex("|")].split("|")
        first = 1 if anchor is None else anchor
        for k, segment in enumerate(segments):
            tokens = segment.split() if _SPACE.search(segment) else segment
            colors = sorted(int(tok) for tok in tokens if tok not in _EMPTY)
            if colors:
                boxes[first + k] = tuple(colors)
    elif _SPACE.search(body):
        first = 0 if anchor is None else anchor
        for k, tok in enumerate(body.split()):
            if tok not in _EMPTY:
                boxes[first + k] = (int(tok),)
    else:  # one character per box: only the balls need a look
        first = 0 if anchor is None else anchor
        for m in _BALL.finditer(body):
            boxes[first + m.start()] = (int(m.group()),)
    return boxes


def color_word(boxes: dict[int, tuple[int, ...]]) -> tuple[int, ...]:
    """Colors read box by box from the left; the bottom row of the state's bi-word."""
    return tuple(c for label in sorted(boxes) for c in boxes[label])


def biword_columns(boxes: dict[int, tuple[int, ...]]) -> list[tuple[int, int]]:
    return [(label, c) for label in sorted(boxes) for c in boxes[label]]


def check_evolve(bx, text: str, out: str, steps: int, oracle: bool) -> str | None:
    """T+1 lines starting at the input, colors and P conserved, last step as the oracle's."""
    lines = out.splitlines()
    if len(lines) != steps + 1:
        return f"evolve printed {len(lines)} lines, expected {steps + 1}"
    start = read_state(text)
    states = [read_state(line) for line in lines]
    if states[0] != start:
        return "evolve: the first line is not the input state"
    colors = sorted(color_word(start))
    for t, s in enumerate(states):
        if sorted(color_word(s)) != colors:
            return f"evolve: the color multiset changed at t={t}"
    if bx.tab(color_word(states[0])) != bx.tab(color_word(states[-1])):
        return "evolve: the P-symbol of the last line differs from the first"
    if oracle:
        expected = bx.oracle.naive_original_step(bx.parse_state(lines[-2]))
        if bx.parse_state(lines[-1]) != expected:
            return "evolve: the last step differs from oracle.naive_original_step"
    return None


def read_tableaux(out: str) -> list[tuple[str, tuple[tuple[int, ...], ...]]]:
    """(header, rows) per block of ``qsymbol`` output."""
    blocks: list[tuple[str, list[tuple[int, ...]]]] = []
    for line in out.splitlines():
        if line.startswith("t="):
            blocks.append((line, []))
        elif line.strip():
            blocks[-1][1].append(tuple(int(x) for x in line.split()))
    return [(head, tuple(rows)) for head, rows in blocks]


def check_qsymbol(bx, out: str, steps: int, state_t, q0_rows) -> str | None:
    """Constant shape, last tableau equal to q_symbol of the T-step state.

    ``state_t`` is the library's state after ``steps`` steps; ``q0_rows``
    is the recording tableau printed by ``rsk`` for the same input, or None.
    """
    blocks = read_tableaux(out)
    if [head for head, _ in blocks] != [f"t={t}" for t in range(steps + 1)]:
        return f"qsymbol printed {len(blocks)} blocks, expected t=0..{steps}"
    shapes = {tuple(len(row) for row in rows) for _, rows in blocks}
    if len(shapes) != 1:
        return "qsymbol: the shape changed along the trajectory"
    if q0_rows is not None and blocks[0][1] != q0_rows:
        return "qsymbol: t=0 differs from the Q printed by rsk"
    if blocks[-1][1] != bx.q_symbol(state_t).rows:
        return f"qsymbol: t={steps} differs from q_symbol of the {steps}-step state"
    return None


def read_rsk(out: str):
    """(biword top, bottom, dual top, bottom, P rows, Q rows) from ``rsk`` output."""
    lines = out.splitlines()
    p_at, q_at = lines.index("P:"), lines.index("Q:")

    def ints(line: str) -> tuple[int, ...]:
        return tuple(int(x) for x in line.split())

    rows = lambda part: tuple(ints(line) for line in part if line.strip())  # noqa: E731
    return (ints(lines[1]), ints(lines[2]), ints(lines[4]), ints(lines[5]),
            rows(lines[p_at + 1:q_at]), rows(lines[q_at + 1:]))


def check_rsk(bx, text: str, out: str) -> str | None:
    """Bi-word of the input, its dual, and inverse_rsk(P, Q) giving the bi-word back."""
    try:
        top, bottom, dual_top, dual_bottom, p_rows, q_rows = read_rsk(out)
    except (ValueError, IndexError):
        return "rsk: output does not have the biword/dual/P/Q layout"
    columns = biword_columns(read_state(text))
    if list(zip(top, bottom)) != columns:
        return "rsk: the bi-word is not the input's"
    if list(zip(dual_top, dual_bottom)) != sorted((c, label) for label, c in columns):
        return "rsk: the dual is not the swapped, re-sorted bi-word"
    restored = bx.inverse_rsk(bx.Tableau(p_rows), bx.Tableau(q_rows))
    if (restored.top, restored.bottom) != (top, bottom):
        return "rsk: inverse_rsk(P, Q) differs from the printed bi-word"
    return None


_SUITE_LINE = re.compile(r"^(?P<name>[^:]+(?::[^:]+)?): (?P<passed>\d+)/(?P<total>\d+) (?P<verdict>ok|FAIL)$")


def check_verify(out: str) -> tuple[str | None, int]:
    """(reason or None, randomized cases run) for one ``verify`` report."""
    lines = out.splitlines()
    if not lines or lines[-1] != "all checks passed":
        return "verify: the report does not end with 'all checks passed'", 0
    cases = fixtures = 0
    for line in lines[:-1]:
        m = _SUITE_LINE.match(line)
        if m is None or m["verdict"] != "ok" or m["passed"] != m["total"]:
            return f"verify: unexpected report line {line!r}", 0
        if m["name"].startswith("fixture:"):
            fixtures += 1
        else:
            cases += int(m["total"])
    if not fixtures:
        return "verify: no fixture checks ran", 0
    return None, cases
