"""Text notations for box-ball states.

Compact notation (capacity-1 boxes only): one token per box, ``_`` or
``e`` for an empty box, a digit for the ball color.  It can only be
written for a state whose capacity is 1 in every box, shown or not: a
default capacity other than 1, or any explicit capacity, is refused,
since compact text re-parses with capacity 1 everywhere.  When any color
exceeds 9 the tokens are whitespace-separated instead, and a one-box text
gets a trailing vacancy (``12 _``) so that it still holds a space.  An
optional leading ``@<label>`` fixes the label of the first shown box
(default 0).  Box labels may be any integers.

Walled notation (arbitrary capacities): boxes delimited by ``|``, each
box a token string whose length is the box capacity, e.g. ``|ee5|e125|4|``.
As in compact notation, whitespace anywhere in the walled text makes every
box a list of whitespace-separated tokens (``|e 12|3|``); text with more
than 9 colors is always rendered that way.  The first shown box has label
1 unless ``@<label>`` is given; a trailing ``+<d>`` sets the capacity of
every unlisted box (default 1).

Parsing canonicalizes (vacancies packed left, colors sorted); rendering
emits canonical text, so parse -> render is idempotent on text and
render -> parse recovers the state.  Only shown boxes carry their
capacities: to keep explicit capacities of boxes outside the occupied
range, render with a span that covers them.
"""

from __future__ import annotations

import re
from itertools import chain, compress

from .bbs import CapacityProfile, State

_PREFIX = re.compile(r"^@(-?\d+)", re.ASCII)
_VACANT = ("_", "e")
_DIGIT_BOXES = {str(c): (c,) for c in range(1, 10)}  # a compact token "1".."9" as its box
_DIGIT_TEXT = tuple(map(str, range(10)))  # a color 1..9 as its compact token, at its index


class StateParseError(ValueError):
    """Malformed state text; carries a human-readable position."""


def parse_state(text: str, colors: int | None = None) -> State:
    """Parse either notation; ``colors`` overrides the inferred color count."""
    body = text.strip()
    first_label: int | None = None
    m = _PREFIX.match(body)
    if m:
        first_label = int(m.group(1))
        body = body[m.end():]
        if body and not body.startswith("|"):
            if not body[0].isspace():
                raise StateParseError(f"expected whitespace or '|' after @{first_label}")
            body = body.lstrip()
    if not body:
        return State(0 if colors is None else colors, {})
    if body.startswith("|"):
        boxes, default = _split_walled(body)
        label0 = 1 if first_label is None else first_label
        caps = {label0 + k: len(tokens) for k, tokens in enumerate(boxes)}
        profile = CapacityProfile(caps, default)
        balls = {label0 + k: _box_colors(tokens, k) for k, tokens in enumerate(boxes)}
    else:
        profile = CapacityProfile()
        label0 = 0 if first_label is None else first_label
        tokens = body.split()
        if len(tokens) > 1:  # whitespace-separated tokens: all checked at once, and a bad one named below
            shown = [tok not in _VACANT for tok in tokens]
            words = list(compress(tokens, shown))
            digits = "".join(words)
            values = list(map(int, words)) if digits.isascii() and digits.isdigit() else [0]
            if 0 in values:
                for k, tok in enumerate(tokens):
                    if shown[k]:
                        _token_color(tok, k)
            balls = dict(zip(compress(range(label0, label0 + len(tokens)), shown), zip(values)))
        else:  # the body is stripped, so it holds no whitespace: one token per character
            digit = _DIGIT_BOXES.get
            balls = {
                label0 + k: digit(tok) or (_token_color(tok, k),) for k, tok in enumerate(body) if tok not in _VACANT
            }
    n = max(chain.from_iterable(balls.values()), default=0)
    if colors is not None:
        if n > colors:
            raise StateParseError(f"color {n} exceeds the declared color count {colors}")
        n = colors
    return State(n, balls, profile)


def _split_walled(body: str) -> tuple[list[list[str]], int]:
    default = 1
    plus = body.rfind("+")
    if plus > body.rfind("|"):
        digits = body[plus + 1:]
        # int() alone takes '２', ' 2' and '1_0'; '-1' passes on to the profile's own message
        if not (digits.isascii() and digits.removeprefix("-").isdigit()):
            raise StateParseError(f"bad default capacity {digits!r}")
        default = int(digits)
        body = body[:plus].rstrip()
    if not body.endswith("|"):
        raise StateParseError("walled notation must end with '|'")
    segments = body[1:-1].split("|")
    wide = any(ch.isspace() for ch in body)
    boxes = []
    for k, seg in enumerate(segments):
        tokens = seg.split() if wide else list(seg)
        if not tokens:
            raise StateParseError(f"box {k + 1} of the walled text is zero-width")
        boxes.append(tokens)
    return boxes, default


def _box_colors(tokens: list[str], k: int) -> tuple[int, ...]:
    return tuple(_token_color(tok, k) for tok in tokens if tok not in _VACANT)


def _token_color(tok: str, k: int) -> int:
    if tok.isascii() and tok.isdigit() and (color := int(tok)) >= 1:  # str.isdigit alone takes '²' and '١'
        return color
    raise StateParseError(f"bad token {tok!r} in box {k + 1}")


def render_state(
    s: State,
    notation: str | None = None,
    span: tuple[int, int] | None = None,
    empty: str = "_",
    anchor: bool = True,
) -> str:
    """Canonical text for a state.

    ``notation`` is ``"compact"``, ``"walled"``, or ``None`` (the default)
    for compact exactly when every capacity is 1 and walled otherwise;
    an explicit ``"compact"`` on any other state raises ``ValueError``.
    ``span`` fixes the inclusive label range shown (default: the occupied
    range; an inverted one raises ``ValueError``); ``empty`` picks the
    vacancy character for compact output; ``anchor=False`` drops the ``@<label>`` prefix (the text then re-parses
    at the notation's default first label).
    """
    caps = s.capacities
    if notation is None:
        notation = "compact" if caps.is_unit else "walled"
    elif notation not in ("compact", "walled"):
        raise ValueError(f"unknown notation {notation!r}")
    if notation == "compact" and not caps.is_unit:  # checked before the empty shortcut, so no state skips it
        if caps.default != 1:
            which = f"the default capacity is {caps.default}"
        else:
            which = f"box {min(caps.explicit)} differs"
        raise ValueError(f"compact notation needs capacity 1 everywhere, but {which}")
    if span is None:
        if s.is_empty():
            return ""
        span = (min(s.balls), max(s.balls))
    lo, hi = span
    if lo > hi:  # no text shows an inverted span: compact would read back empty, walled not at all
        raise ValueError(f"span ({lo}, {hi}) runs backwards")
    if notation == "compact":
        return _render_compact(s, lo, hi, empty, anchor)
    return _render_walled(s, lo, hi, anchor)


def _render_compact(s: State, lo: int, hi: int, empty: str, anchor: bool) -> str:
    tokens = [empty] * (hi - lo + 1)
    wide = s.n > 9
    for j, (color,) in s.balls.items():
        if lo <= j <= hi:
            tokens[j - lo] = str(color) if wide else _DIGIT_TEXT[color]
    if wide and len(tokens) == 1:  # one token: a trailing vacancy marks the token mode
        tokens.append(empty)
    body = (" " if wide else "").join(tokens)
    return body if lo == 0 or not anchor else f"@{lo} {body}"


def _render_walled(s: State, lo: int, hi: int, anchor: bool) -> str:
    caps = s.capacities
    sep = " " if s.n > 9 else ""
    boxes = {j for j in chain(caps.explicit, s.balls) if lo <= j <= hi}
    # the line is sized up front, so a span too wide to build raises before it fills memory;
    # an empty default box is built only when the span shows one
    blank = sep.join(["e"] * caps.default) if len(boxes) <= hi - lo else ""
    parts = [blank] * (hi - lo + 1)
    for j in boxes:
        colors = s.balls.get(j, ())
        parts[j - lo] = sep.join(["e"] * (caps.capacity(j) - len(colors)) + [str(c) for c in colors])
    body = "|" + "|".join(parts) + "|"
    if sep and " " not in body:  # one token per box: a space marks the token mode
        body = "| " + body[1:]
    if caps.default != 1:
        body += f"+{caps.default}"
    return body if lo == 1 or not anchor else f"@{lo}{body}"


def render_trajectory(
    states: list[State],
    notation: str | None = None,
    span: tuple[int, int] | None = None,
    empty: str = "_",
    anchor: bool = True,
) -> list[str]:
    """Render states over a common label range (default: the union occupied range).

    Each state's notation is ``notation``, or with ``None`` (the default)
    the one ``render_state`` picks for it: compact on unit capacities,
    walled otherwise.
    """
    if span is None:
        occupied = [j for s in states for j in s.balls]
        if occupied:  # else each state is empty and render_state gives "" after its checks
            span = (min(occupied), max(occupied))
    return [render_state(s, notation, span, empty, anchor) for s in states]
