import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from boxball.bbs import CapacityProfile, State, carrier_step, evolve
from boxball.notation import StateParseError, parse_state, render_state, render_trajectory


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
    assert render_state(s, "walled") == "|e 12|3|"


def test_walled_wide_colors_one_token_per_box_round_trip():
    s = State(12, {1: (12,)})
    assert render_state(s, "walled") == "| 12|"
    assert parse_state(render_state(s, "walled"), colors=12) == s
    for s in (State(12, {1: (12,), 2: (3,)}), State(10, {-4: (10,), 0: (1,)})):
        assert parse_state(render_state(s, "walled"), colors=s.n) == s
        assert parse_state(render_state(s, "walled") + "+1", colors=s.n) == s
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
    ],
)
def test_compact_tokens_outside_the_digit_table_keep_their_messages(text, message):
    with pytest.raises(StateParseError) as err:
        parse_state(text)
    assert str(err.value) == message


def test_render_compact_reference():
    stepped = carrier_step(parse_state("@1 234_15", colors=5))
    assert render_state(stepped, "compact", (0, 9)) == "____23_145"


def test_render_walled_reference():
    s = parse_state("|ee5|e125|4|ee3|12|e45|ee|e|eeeee|ee|")
    assert render_state(carrier_step(s), "walled", (1, 10)) == (
        "|eee|eee5|5|124|e3|ee1|24|5|eeeee|ee|"
    )


def test_render_empty_state():
    assert render_state(State(3, {})) == ""
    assert render_state(State(3, {}), "walled", (1, 2)) == "|e|e|"


def test_render_requires_unit_capacity_for_compact():
    s = parse_state("|12|")
    with pytest.raises(ValueError):
        render_state(s, "compact")


def test_compact_output_needs_unit_capacity_off_the_shown_boxes_too():
    wide_elsewhere = State(1, {0: (1,)}, CapacityProfile({5: 2, 7: 3}))
    with pytest.raises(ValueError, match="box 5 differs"):
        render_state(wide_elsewhere, "compact")
    assert render_state(State(1, {0: (1,)}, CapacityProfile({5: 1}, 1)), "compact") == "1"


@pytest.mark.parametrize(
    "text, which",
    [("@-4|1|e2|ee|3|", "box -3 differs"), ("@-1|1|2|+2", "the default capacity is 2"), ("|ee|", "box 1 differs")],
    ids=["wider-box", "wider-default", "empty-wider-state"],
)
def test_compact_output_names_what_refuses_it(text, which):
    s = parse_state(text)
    message = f"^compact notation needs capacity 1 everywhere, but {which}$"
    for span in (None, (0, 3)):
        with pytest.raises(ValueError, match=message):
            render_state(s, "compact", span)
        with pytest.raises(ValueError, match=message):
            render_trajectory([s, carrier_step(s)], "compact", span)


def test_no_notation_means_compact_exactly_on_unit_capacities(fixtures):
    unit = parse_state("@1 234_15", colors=5)
    assert render_state(unit) == render_state(unit, "compact") == "@1 234_15"
    assert render_state(State(1, {0: (1,)}, CapacityProfile({5: 1}))) == "1"
    for text in ("@-1|e1|2|", "@-1|1|2|+2", "|1|e2|"):
        s = parse_state(text)
        assert render_state(s) == render_state(s, "walled") == text
    states = evolve(parse_state("|1|e2|"), 2)
    assert render_trajectory(states) == render_trajectory(states, "walled")
    states = evolve(unit, 2)
    assert render_trajectory(states) == render_trajectory(states, "compact")
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
    assert render_state(s, "walled") == "@2|1|2|"
    assert render_state(s, "walled", anchor=False) == "|1|2|"
    assert parse_state(render_state(s)) == s
    assert parse_state(render_state(s, "walled")) == s
    for notation in ("compact", "walled"):  # an inverted span has no text that reads back
        with pytest.raises(ValueError, match=r"^span \(5, 1\) runs backwards$"):
            render_state(s, notation, (5, 1))
        with pytest.raises(ValueError, match="runs backwards"):
            render_trajectory([s], notation, (5, 1))


def test_parse_render_roundtrip_on_text():
    for text in ("234_15", "|ee5|e125|4|", "@3 1_2", "@-1|e3|12|+2"):
        canonical = render_state(parse_state(text), "walled" if "|" in text else "compact")
        assert parse_state(canonical) == parse_state(text)
        assert render_state(parse_state(canonical), "walled" if "|" in text else "compact") == canonical


def test_state_render_parse_roundtrip_random():
    # a span covering every explicit capacity makes the walled text a
    # faithful encoding; the occupied-range default still recovers the balls
    import random

    from boxball.verify import random_state

    rng = random.Random(77)
    for _ in range(300):
        s = random_state(rng)
        if s.is_empty():
            continue
        shown = set(s.balls) | set(s.capacities.explicit)
        full = render_state(s, "walled", (min(shown), max(shown)))
        assert parse_state(full, colors=s.n) == s
        assert parse_state(render_state(s, "walled"), colors=s.n).balls == s.balls
        if s.capacities == CapacityProfile():
            assert parse_state(render_state(s, "compact"), colors=s.n) == s


@given(st.randoms(use_true_random=False))
def test_compact_round_trip_on_random_unit_states(rng):
    # a random_state draw, one ball kept per box so that it fits the unit profile
    from boxball.verify import random_state

    drawn = random_state(rng)
    s = State(drawn.n, {label: colors[:1] for label, colors in drawn.balls.items()})
    assert parse_state(render_state(s, "compact"), colors=s.n) == s


def test_render_trajectory_common_span():
    s = parse_state("@1 234_15", colors=5)
    lines = render_trajectory([s, carrier_step(s)])
    assert lines == ["@1 234_15___", "@1 ___23_145"]
    assert render_trajectory([State(2, {}), State(2, {})]) == ["", ""]


def test_an_empty_state_is_checked_before_it_renders_as_nothing():
    wide = parse_state("|ee|")
    assert wide.is_empty()
    for render in (lambda: render_state(wide, "compact"), lambda: render_trajectory([wide], "compact")):
        with pytest.raises(ValueError, match="box 1 differs"):
            render()
    empty = State(1, {})
    for render in (lambda: render_state(empty, "bogus"), lambda: render_trajectory([empty], "bogus")):
        with pytest.raises(ValueError, match="unknown notation 'bogus'"):
            render()
    assert render_trajectory([wide], "walled") == [""]


@given(st.text("0123456789_e|@+- \t\n", max_size=30), st.none() | st.integers(-2, 12))
@example("@-3 |e 12|3|+2", 12)
@example("|ee5|e125|4|", None)
def test_parse_accepts_or_rejects_any_text(text, colors):
    try:
        s = parse_state(text, colors)
    except ValueError:
        return
    assert isinstance(s, State)
    if not s.is_empty():
        shown = set(s.balls) | set(s.capacities.explicit)
        assert parse_state(render_state(s, "walled", (min(shown), max(shown))), colors=s.n) == s
