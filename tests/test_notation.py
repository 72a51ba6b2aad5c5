import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from boxball.bbs import CapacityProfile, State, carrier_step, evolve
from boxball.notation import StateParseError, parse_state, render_state, render_trajectory
from checked_rebuild import assert_as_checked


def test_parse_compact_reference():
    s = parse_state("_234_15", colors=5)
    assert s == State(5, {1: (2,), 2: (3,), 3: (4,), 5: (1,), 6: (5,)})
    assert s.n == 5


def test_parse_compact_infers_colors():
    s = parse_state("_234_15")
    assert s.n == 5


def test_parse_walled_reference():
    s = parse_state("|ee5|e125|4|ee3|12|e45|ee|e|eeeee|ee|")
    assert s.n == 5
    assert s.balls == {1: (5,), 2: (1, 2, 5), 3: (4,), 4: (3,), 5: (1, 2), 6: (4, 5)}
    assert s.capacities == CapacityProfile(
        {1: 3, 2: 4, 3: 1, 4: 3, 5: 2, 6: 3, 7: 2, 8: 1, 9: 5, 10: 2}
    )


def test_parse_empty():
    assert parse_state("") == State(0, {})
    assert parse_state("   ", colors=4) == State(4, {})


def test_parse_label_anchor():
    assert parse_state("@4 1_2", colors=2).balls == {4: (1,), 6: (2,)}
    assert parse_state("@-3 11", colors=1).balls == {-3: (1,), -2: (1,)}
    assert parse_state("@0|e1|2|").balls == {0: (1,), 1: (2,)}


def test_parse_wide_colors_token_mode():
    s = parse_state("12 e 3 _ 1", colors=12)
    assert s.balls == {0: (12,), 2: (3,), 4: (1,)}
    assert s.n == 12


def test_walled_wide_colors_round_trip():
    s = parse_state("|e 12|3|", colors=12)
    assert s.balls == {1: (12,), 2: (3,)}
    assert s.capacities.capacity(1) == 2
    assert render_state(s) == "|e 12|3|"


def test_walled_wide_colors_one_token_per_box_round_trip():
    # a box of capacity 2 off the shown range makes the text walled, with one token in each shown box
    wide_off_shown = CapacityProfile({5: 2})
    s = State(12, {1: (12,)}, wide_off_shown)
    assert render_state(s) == "| 12|"
    assert parse_state(render_state(s, (1, 5)), colors=12) == s
    for s in (State(12, {1: (12,), 2: (3,)}, wide_off_shown), State(10, {-4: (10,), 0: (1,)}, wide_off_shown)):
        text = render_state(s)
        assert "| " in text  # one token per box: a space marks the token mode
        assert parse_state(text, colors=s.n) == parse_state(text + "+1", colors=s.n) == State(s.n, s.balls)
    assert parse_state("|e 12|34|", colors=34).balls == {1: (12,), 2: (34,)}
    # the compact counterpart: a one-box body gets a trailing vacancy
    s = State(12, {0: (12,)})
    assert render_state(s) == "12 _"
    assert parse_state(render_state(s), colors=12) == s
    s = State(12, {5: (12,)})
    assert render_state(s) == "@5 12 _"
    assert parse_state(render_state(s), colors=12) == s


def test_parse_default_capacity_suffix():
    s = parse_state("|12|e|+3")
    assert s.capacities.default == 3
    assert s.capacities.capacity(1) == 2
    assert s.capacities.capacity(99) == 3


def test_parse_canonicalizes_box_order():
    assert parse_state("|51e|") == parse_state("|e15|")


def test_parse_errors():
    with pytest.raises(StateParseError):
        parse_state("1x2")
    with pytest.raises(StateParseError):
        parse_state("_23", colors=2)  # color above declared bound
    with pytest.raises(StateParseError):
        parse_state("|12||3|")  # zero-width box
    with pytest.raises(StateParseError):
        parse_state("|1|+x")
    with pytest.raises(StateParseError):
        parse_state("@2_1")  # anchor must be separated in compact form
    # str.isdigit accepts these; only ASCII digits are colors
    with pytest.raises(StateParseError, match="bad token '²' in box 2"):
        parse_state("1²3")
    with pytest.raises(StateParseError, match="bad token '١' in box 2"):
        parse_state("1١3")
    with pytest.raises(StateParseError, match="bad token '@١' in box 1"):
        parse_state("@١ 12")


@pytest.mark.parametrize(
    "text, message",
    [
        ("0", "bad token '0' in box 1"),
        ("@2 1_0", "bad token '0' in box 3"),
        ("1²3", "bad token '²' in box 2"),
        ("1 ١ 2", "bad token '١' in box 2"),
        ("1 0 12", "bad token '0' in box 2"),
        ("@-3x1", "expected whitespace or '|' after @-3"),
        # (text, colors): a declared color count is compared after every token is read
        (("1 0 12", 2), "bad token '0' in box 2"),
        (("1 x 12", 12), "bad token 'x' in box 2"),
        (("1_23", 2), "color 3 exceeds the declared color count 2"),
        (("1 _ 12", 11), "color 12 exceeds the declared color count 11"),
    ],
)
def test_compact_tokens_outside_the_digit_table_keep_their_messages(text, message):
    text, colors = (text, None) if isinstance(text, str) else text
    with pytest.raises(StateParseError) as err:
        parse_state(text, colors)
    assert str(err.value) == message


@pytest.mark.parametrize("text", ["", "1_2", "1 _ 12", "|ee|", "|1|2|+2", "x", "|1|2"])
def test_a_negative_color_count_is_refused_before_any_box(text):
    with pytest.raises(ValueError) as err:
        parse_state(text, -1)
    assert type(err.value) is ValueError and str(err.value) == "number of colors must be nonnegative"


def test_render_compact_reference():
    stepped = carrier_step(parse_state("@1 234_15", colors=5))
    assert render_state(stepped, (0, 9)) == "____23_145"


def test_render_walled_reference():
    s = parse_state("|ee5|e125|4|ee3|12|e45|ee|e|eeeee|ee|")
    assert render_state(carrier_step(s), (1, 10)) == (
        "|eee|eee5|5|124|e3|ee1|24|5|eeeee|ee|"
    )


def test_render_empty_state():
    assert render_state(State(3, {})) == ""
    assert render_state(State(3, {}), (1, 2)) == "@1 __"
    assert render_state(State(3, {}, CapacityProfile({2: 2})), (1, 2)) == "|e|ee|"


def test_no_notation_means_compact_exactly_on_unit_capacities(fixtures):
    # the capacity profile picks the notation: compact exactly when every box, shown or not, has capacity 1
    unit = parse_state("@1 234_15", colors=5)
    assert render_state(unit) == "@1 234_15"
    assert render_state(State(1, {0: (1,)}, CapacityProfile({5: 1}))) == "1"  # an explicit 1 is the unit profile
    for text in ("@-1|e1|2|", "@-1|1|2|+2", "|1|e2|"):
        assert render_state(parse_state(text)) == text
    assert render_state(parse_state("|ee|"), (1, 1)) == "|ee|"  # an empty state too
    # a box wider than 1 off the shown range still makes the text walled, and the text keeps its balls
    wide_elsewhere = State(1, {0: (1,)}, CapacityProfile({5: 2, 7: 3}))
    assert render_state(wide_elsewhere) == "@0|1|"
    assert parse_state(render_state(wide_elsewhere)).balls == wide_elsewhere.balls
    assert render_trajectory(evolve(unit, 2)) == ["@1 234_15______", "@1 ___23_145___", "@1 _____23__145"]
    sec6 = parse_state((fixtures / "sec6_input.txt").read_text())
    assert render_trajectory(evolve(sec6, 4)) == (fixtures / "sec6_table1.txt").read_text().splitlines()


def test_walled_output_builds_a_default_box_only_when_it_shows_one():
    huge = 10**20
    s = parse_state(f"|1|e1|+{huge}")
    assert render_state(s) == f"|1|e1|+{huge}"
    with pytest.raises(OverflowError):  # box 3 shows the default: a box wider than an index
        render_state(s, span=(1, 3))


def test_render_anchor_rules():
    s = State(2, {2: (1,), 3: (2,)})
    assert render_state(s) == "@2 12"
    assert render_state(s, span=(0, 3)) == "__12"
    assert render_state(s, anchor=False) == "12"
    walled = parse_state("@-1|1|2|+2")
    assert render_state(walled) == "@-1|1|2|+2"
    assert render_state(walled, anchor=False) == "|1|2|+2"
    assert parse_state(render_state(s)) == s
    assert parse_state(render_state(walled)) == walled
    for state in (s, walled):  # an inverted span has no text that reads back, compact or walled
        with pytest.raises(ValueError, match=r"^span \(5, 1\) runs backwards$"):
            render_state(state, (5, 1))
        with pytest.raises(ValueError, match="runs backwards"):
            render_trajectory([state], (5, 1))


def test_parse_render_roundtrip_on_text():
    for text in ("234_15", "|ee5|e125|4|", "@3 1_2", "@-1|e3|12|+2"):
        canonical = render_state(parse_state(text))
        assert parse_state(canonical) == parse_state(text)
        assert render_state(parse_state(canonical)) == canonical


def test_state_render_parse_roundtrip_random():
    # a span covering every explicit capacity makes the text a faithful
    # encoding; the occupied-range default still recovers the balls
    import random

    from boxball.verify import random_state

    rng = random.Random(77)
    for _ in range(300):
        s = random_state(rng)
        if s.is_empty():
            continue
        shown = set(s.balls) | set(s.capacities.explicit)
        full = render_state(s, (min(shown), max(shown)))
        assert parse_state(full, colors=s.n) == s
        assert parse_state(render_state(s), colors=s.n).balls == s.balls


@given(st.randoms(use_true_random=False))
def test_compact_round_trip_on_random_unit_states(rng):
    # a random_state draw, one ball kept per box so that it fits the unit profile
    from boxball.verify import random_state

    drawn = random_state(rng)
    s = State(drawn.n, {label: colors[:1] for label, colors in drawn.balls.items()})
    assert parse_state(render_state(s), colors=s.n) == s


def test_render_trajectory_common_span():
    s = parse_state("@1 234_15", colors=5)
    lines = render_trajectory([s, carrier_step(s)])
    assert lines == ["@1 234_15___", "@1 ___23_145"]
    assert render_trajectory([State(2, {}), State(2, {})]) == ["", ""]


def test_an_empty_state_is_checked_before_it_renders_as_nothing():
    wide = parse_state("|ee|")
    assert wide.is_empty()
    for render in (lambda: render_state(wide, empty="x"), lambda: render_trajectory([wide], empty="x")):
        with pytest.raises(ValueError, match="empty box character must be '_' or 'e', not 'x'"):
            render()
    assert render_state(wide) == ""
    assert render_trajectory([wide]) == [""]


@pytest.mark.parametrize("empty", ["", "x", "__", " ", "E", "0"])
def test_render_refuses_a_vacancy_character_that_would_not_parse_back(empty):
    # "" would write "12" for 1_2, and "x" text that the parser rejects
    s = parse_state("1_2")
    assert [parse_state(render_state(s, empty=vacancy)) for vacancy in ("_", "e")] == [s, s]
    renders = [
        lambda: render_state(s, empty=empty),
        lambda: render_state(State(1, {}), empty=empty),  # checked before the empty shortcut
        lambda: render_state(parse_state("|e1|"), empty=empty),  # walled text ignores it, but the call is still wrong
        lambda: render_trajectory([s, carrier_step(s)], empty=empty),
    ]
    for render in renders:
        with pytest.raises(ValueError, match=f"^empty box character must be '_' or 'e', not {re.escape(repr(empty))}$"):
            render()


@given(st.text("0123456789_e|@+- \t\n", max_size=30), st.none() | st.integers(-2, 12))
@example("@-3 |e 12|3|+2", 12)
@example("|ee5|e125|4|", None)
def test_parse_accepts_or_rejects_any_text(text, colors):
    try:
        s = parse_state(text, colors)
    except ValueError:
        return
    assert isinstance(s, State) and s.n >= 0
    assert_as_checked(s)  # compact text is built past State's check
    if not s.is_empty():
        shown = set(s.balls) | set(s.capacities.explicit)
        assert parse_state(render_state(s, (min(shown), max(shown))), colors=s.n) == s
