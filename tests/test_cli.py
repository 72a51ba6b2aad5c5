import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from boxball.bbs import evolve
from boxball.cli import main
from boxball.notation import parse_state, render_trajectory
from boxball.verify import FIXTURE_CHECKS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_evolve_reproduces_capacity_table(capsys, fixtures):
    code, out = run_cli(capsys, "evolve", str(fixtures / "sec6_input.txt"), "--steps", "4")
    assert code == 0
    assert out == (fixtures / "sec6_table1.txt").read_text()


def test_evolve_compact_with_span(capsys, tmp_path):
    src = tmp_path / "state.txt"
    src.write_text("@1 234_15\n")
    code, out = run_cli(
        capsys, "evolve", str(src), "--steps", "1", "--span", "0:9", "--colors", "5"
    )
    assert code == 0
    assert out == "_234_15___\n____23_145\n"


def test_rsk_output_shows_biword_and_dual(capsys, tmp_path):
    src = tmp_path / "state.txt"
    src.write_text("@1 234_15\n")
    code, out = run_cli(capsys, "rsk", str(src))
    assert code == 0
    assert out == (
        "biword:\n1 2 3 5 6\n2 3 4 1 5\n"
        "dual:\n1 2 3 4 5\n5 1 2 3 6\n"
        "P:\n1 3 4 5\n2\n"
        "Q:\n1 2 3 6\n5\n"
    )


def test_qsymbol_trajectory(capsys, fixtures):
    code, out = run_cli(capsys, "qsymbol", str(fixtures / "sec6_input.txt"), "--steps", "2")
    assert code == 0
    assert out.split("\n\n") == [
        "t=0\n1 2 2 6 6\n2 3\n4 5\n5",
        "t=1\n2 3 4 7 8\n4 4\n5 7\n6",
        "t=2\n4 4 6 9 9\n5 5\n6 9\n9\n",
    ]


def test_trace_label_mode_shows_carriers(capsys, tmp_path):
    src = tmp_path / "state.txt"
    src.write_text("@1 234_15\n")
    code, out = run_cli(capsys, "trace", str(src))
    assert code == 0
    assert out.splitlines() == [
        "(4,7,8,9,10,11) 5 1 2 3 6",
        "7 (4,5,8,9,10,11) 1 2 3 6",
        "7 4 (1,5,8,9,10,11) 2 3 6",
        "7 4 5 (1,2,8,9,10,11) 3 6",
        "7 4 5 8 (1,2,3,9,10,11) 6",
        "7 4 5 8 9 (1,2,3,6,10,11)",
    ]


def test_trace_slot_mode_shows_every_carrier(capsys, tmp_path):
    src = tmp_path / "state.txt"
    src.write_text("@1 234_15\n")
    code, out = run_cli(capsys, "trace", str(src), "--mode", "slots")
    assert code == 0
    assert out.splitlines() == [
        "(e,e,e,e,e) 2 3 4 e 1 5 e e e e e",
        "e (2,e,e,e,e) 3 4 e 1 5 e e e e e",
        "e e (2,3,e,e,e) 4 e 1 5 e e e e e",
        "e e e (2,3,4,e,e) e 1 5 e e e e e",
        "e e e 2 (3,4,e,e,e) 1 5 e e e e e",
        "e e e 2 3 (1,4,e,e,e) 5 e e e e e",
        "e e e 2 3 e (1,4,5,e,e) e e e e e",
        "e e e 2 3 e 1 (4,5,e,e,e) e e e e",
        "e e e 2 3 e 1 4 (5,e,e,e,e) e e e",
        "e e e 2 3 e 1 4 5 (e,e,e,e,e) e e",
        "e e e 2 3 e 1 4 5 e (e,e,e,e,e) e",
        "e e e 2 3 e 1 4 5 e e (e,e,e,e,e)",
    ]


def test_verify_vacuous_passes(capsys):
    code, out = run_cli(capsys, "verify", "--seed", "7", "--cases", "0")
    assert code == 0
    assert "all checks passed" in out


def test_verify_deterministic_per_seed(capsys):
    _, first = run_cli(capsys, "verify", "--seed", "3", "--cases", "20")
    _, second = run_cli(capsys, "verify", "--seed", "3", "--cases", "20")
    assert first == second


def test_verify_with_fixtures(capsys, fixtures):
    code, out = run_cli(capsys, "verify", "--seed", "1", "--cases", "5", "--fixtures", str(fixtures))
    assert code == 0
    assert "fixture:sec6_table1.txt: 1/1 ok" in out


def test_parse_error_is_reported(capsys, tmp_path):
    src = tmp_path / "state.txt"
    src.write_text("12x\n")
    assert main(["evolve", str(src)]) != 0


def test_non_ascii_digit_exits_2_with_its_box(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("1²3\n"))
    assert main(["evolve"]) == 2
    assert capsys.readouterr().err == "error: bad token '²' in box 2\n"


@pytest.mark.parametrize(
    "text, message",
    [("|1|2", "walled notation must end with '|'")],
    ids=["unterminated-walled"],
)
def test_parse_error_exits_2_with_its_message(capsys, monkeypatch, text, message):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["evolve"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("default", ["２", " 2", "1_0"])
def test_default_capacity_takes_ascii_digits_only(capsys, monkeypatch, default):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(f"|1|e|+{default}\n"))
    assert main(["evolve"]) == 2
    assert capsys.readouterr() == ("", f"error: bad default capacity {default!r}\n")


def test_missing_file_is_reported(capsys):
    assert main(["rsk", "/nonexistent/state.txt"]) == 2


def test_a_failing_stdout_write_exits_2(capsys, monkeypatch):
    import io

    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr("sys.stdin", io.StringIO("1__\n"))
    monkeypatch.setattr("sys.stdout", ClosedPipe())
    assert main(["evolve"]) == 2
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize(
    "text, argv",
    [
        ("1", ["evolve", "--span=0:100000000000000000000"]),
        ("|e1|", ["evolve", "--span=0:100000000000000000000"]),
        ("|1|+100000000000000000000", ["evolve"]),
    ],
    ids=["compact-span", "walled-span", "walled-box"],
)
def test_output_past_the_index_range_exits_2(capsys, monkeypatch, text, argv):
    """Each line would need more than 2^63 tokens, so building it raises before it allocates."""
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: output too large to build (OverflowError)\n")


def test_output_past_the_memory_exits_2(capsys, monkeypatch):
    import io

    import boxball.notation as notation

    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(notation, "_render_walled", out_of_memory)
    monkeypatch.setattr("sys.stdin", io.StringIO("|1|+1000000000000000000"))
    assert main(["evolve"]) == 2
    assert capsys.readouterr() == ("", "error: output too large to build (MemoryError)\n")


@pytest.mark.parametrize("argv", [["qsymbol", "--steps", "2"], ["trace"]])
def test_a_box_wider_than_an_index_prints_like_a_wide_box(capsys, monkeypatch, argv):
    import io

    outs = []
    for default in ("100000000000000000000", "5"):
        monkeypatch.setattr("sys.stdin", io.StringIO(f"|1|+{default}"))
        outs.append(run_cli(capsys, *argv))
    assert outs[0] == outs[1] and outs[0][0] == 0


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("1__\n"))
    code, out = run_cli(capsys, "evolve", "--steps", "1")
    assert code == 0
    assert out == "1_\n_1\n"


def test_rsk_and_qsymbol_at_labels_up_to_zero(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("1_2\n"))
    code, out = run_cli(capsys, "qsymbol", "--steps", "2")
    assert code == 0
    assert out == "t=0\n0 2\n\nt=1\n1 3\n\nt=2\n2 4\n"
    monkeypatch.setattr("sys.stdin", io.StringIO("1_2\n"))
    code, out = run_cli(capsys, "rsk")
    assert code == 0
    assert out == "biword:\n0 2\n1 2\ndual:\n1 2\n0 2\nP:\n1 2\nQ:\n0 2\n"
    monkeypatch.setattr("sys.stdin", io.StringIO("@-3 12__\n"))
    code, out = run_cli(capsys, "rsk")
    assert code == 0
    assert out == "biword:\n-3 -2\n1 2\ndual:\n1 2\n-3 -2\nP:\n1 2\nQ:\n-3 -2\n"


def test_bad_span_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["evolve", "--span", "3"])
    assert exit_.value.code == 2
    assert "expected LO:HI" in capsys.readouterr().err


def test_reversed_span_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["evolve", "--span=5:2"])
    assert exit_.value.code == 2
    assert "expected LO <= HI, got '5:2'" in capsys.readouterr().err


def test_qsymbol_rejects_a_negative_step_count(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("1_2\n"))
    assert main(["qsymbol", "--steps", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: step count must be nonnegative\n"


def test_verify_passes_with_asserts_stripped():
    """``python -O`` removes ``assert`` statements; every invariant must still be checked."""
    root = Path(__file__).resolve().parents[1]
    path = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-O", "-m", "boxball", "verify", "--seed", "1", "--cases", "20",
         "--fixtures", "tests/fixtures"],
        cwd=root, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "all checks passed"


@pytest.mark.parametrize("text, span", [("_234_15", "-2:12"), ("@-1|e1|2|e|+2", "-3:4")])
def test_evolve_with_span_keeps_the_labels(capsys, monkeypatch, text, span):
    import io

    lines = []
    for extra in ((), (f"--span={span}",)):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out = run_cli(capsys, "evolve", "--steps", "2", "--colors", "5", *extra)
        assert code == 0
        lines.append(out.splitlines())
    plain, spanned = lines
    assert spanned[0].startswith(f"@{span.split(':')[0]}")
    assert [parse_state(x, 5) for x in spanned] == [parse_state(x, 5) for x in plain]


@pytest.mark.parametrize("span", [[], ["--span", "0:3"]])
def test_compact_output_rejects_an_empty_wider_state(capsys, monkeypatch, span):
    import io

    states = evolve(parse_state("|ee|"), 1)
    shown = (0, 3) if span else None
    with pytest.raises(ValueError, match="^compact notation needs capacity 1 everywhere, but box 1 differs$"):
        render_trajectory(states, "compact", shown)
    monkeypatch.setattr("sys.stdin", io.StringIO("|ee|\n"))
    assert main(["evolve", *span]) == 0  # so evolve prints the walled text instead
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines() == render_trajectory(states, "walled", shown)
    assert out == ("\n\n" if not span else "@0|e|ee|e|e|\n" * 2)


def test_an_empty_unit_state_prints_empty_lines_and_no_trace(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("__\n"))
    assert main(["evolve", "--steps", "1"]) == 0
    assert capsys.readouterr() == ("\n\n", "")
    monkeypatch.setattr("sys.stdin", io.StringIO("__\n"))
    assert main(["trace"]) == 0
    assert capsys.readouterr() == ("(empty state: nothing to trace)\n", "")


@pytest.mark.parametrize(
    "argv",
    [
        ["rsk", "--colors", "5"],
        ["qsymbol", "--colors", "5"],
        ["trace", "--colors", "5"],
        ["evolve", "--notation", "walled"],
        ["evolve", "--empty-char", "e"],
    ],
    ids=["rsk-colors", "qsymbol-colors", "trace-colors", "evolve-notation", "evolve-empty-char"],
)
def test_options_that_change_no_output_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


VERIFY_SUITES = {
    "p-conservation": "check_p_conservation",
    "algorithm-equivalence": "check_algorithms_agree",
    "reversibility": "check_reversible",
    "box-label-evolution": "check_box_label",
    "carrier-knuth": "check_carrier_knuth",
    "q-evolution": "check_q_evolution",
    "reduction-commutation": "check_reduction_commutes",
    "rsk-roundtrip": "check_rsk_roundtrip",
    "q-independence": "check_q_independence",
}


@pytest.mark.parametrize("suite", VERIFY_SUITES)
def test_verify_prints_the_first_failing_case(capsys, monkeypatch, suite):
    import boxball.verify as verify
    from boxball.bbs import State, state_to_biword

    _, passing = run_cli(capsys, "verify", "--seed", "1", "--cases", "20")
    assert re.fullmatch(r"(\S+: (\d+)/\2 ok\n){9}all checks passed\n", passing)

    seen, verdicts = [], []

    def check(case, *_):  # passes the first two cases, then fails those with more than 5 balls or columns
        seen.append(case)
        verdicts.append(len(seen) <= 2 or (case.ball_count if isinstance(case, State) else len(case.top)) <= 5)
        return verdicts[-1]

    monkeypatch.setattr(verify, VERIFY_SUITES[suite], check)
    code, out = run_cli(capsys, "verify", "--seed", "1", "--cases", "20")
    assert code == 1
    lines = out.splitlines()
    at = lines.index(f"{suite}: {sum(verdicts)}/20 FAIL")
    replay = r"  first failure, case (\d+) of seed (\d+): echo '(.+)' \| boxball (\w+)(?: --colors (\d+))?"
    m = re.fullmatch(replay, lines[at + 1])
    case, seed, text, command, colors = int(m[1]), int(m[2]), m[3], m[4], m[5]
    assert case == verdicts.index(False) and seed == 1
    if suite == "rsk-roundtrip":
        assert command == "rsk" and colors is None and state_to_biword(parse_state(text)) == seen[case]
    else:
        assert command == "evolve" and parse_state(text, int(colors)) == seen[case]
    rest = lines[:at] + lines[at + 2:-1]
    assert rest == [x for x in passing.splitlines()[:-1] if not x.startswith(f"{suite}:")]


def test_verify_reports_an_internal_fault_as_a_failing_case(capsys, monkeypatch, fixtures):
    import boxball.bbs as bbs

    # a vacant-label carrier with no label above the balls: every label pass raises InvariantError
    vacant_labels = bbs._vacant_labels

    def below(top, caps):
        labels = vacant_labels(top, caps)
        return (labels[0] - 1,) * len(labels)

    monkeypatch.setattr(bbs, "_vacant_labels", below)
    code, out = run_cli(capsys, "verify", "--seed", "1", "--cases", "20", "--fixtures", str(fixtures))
    assert code == 1
    lines = out.splitlines()
    failing = [k for k, line in enumerate(lines) if line.endswith(" FAIL") and not line.startswith("fixture:")]
    assert [lines[k].split(":")[0] for k in failing] == [
        "p-conservation", "algorithm-equivalence", "box-label-evolution", "q-evolution", "q-independence",
    ]
    assert all(lines[k + 1].startswith("  first failure, case ") for k in failing)
    fixture_lines = [line for line in lines if line.startswith("fixture:")]
    assert len(fixture_lines) == len(FIXTURE_CHECKS)
    assert sum(line.endswith(": 0/1 FAIL") for line in fixture_lines) == 9
    assert lines[-1] == "SOME CHECKS FAILED"


def test_verify_rejects_a_negative_case_count(capsys):
    assert main(["verify", "--cases", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: case count must be nonnegative\n"


@pytest.mark.parametrize("where", ["nonexistent", "empty"])
def test_verify_reports_a_missing_fixture(capsys, tmp_path, where):
    fixtures = tmp_path / "nonexistent" if where == "nonexistent" else tmp_path
    assert main(["verify", "--cases", "1", "--fixtures", str(fixtures)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "sec3_timeline.txt" in captured.err


def test_one_parser_serves_every_call_in_a_process(capsys, monkeypatch):
    """Several ``main`` calls in one process print what fresh processes print."""
    import io

    from boxball.cli import build_parser

    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal width
    root = Path(__file__).resolve().parents[1]
    path = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    calls = [
        (["evolve", "--steps", "2", "--span=-1:8", "--colors", "6"], "234_15\n"),
        (["qsymbol", "--steps", "1"], "@-2 1_2\n"),
        (["evolve", "--span", "3"], ""),
        (["trace", "--mode", "slots"], "1_2\n"),
        (["evolve"], "1__\n"),
        (["trace"], "1_2\n"),
        (["verify", "--seed", "2", "--cases", "3"], ""),
    ]
    codes = []
    for argv, text in calls:
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
        captured = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "boxball", *argv], input=text,
            cwd=root, env=env, capture_output=True, text=True, timeout=60,
        )
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        codes.append(code)
    assert codes == [0, 0, 2, 0, 0, 0, 0]
    assert build_parser() is build_parser()


def _change_digit(text, which):
    """The text with its ``which``-th digit (in text order) replaced by another digit."""
    at = [k for k, ch in enumerate(text) if ch.isdigit()][which]
    return text[:at] + str(int(text[at]) % 9 + 1) + text[at + 1:]


def _drop_second(text):
    """The text without its second blank-line block, or its second line if it is one block."""
    blocks = text.split("\n\n")
    if len(blocks) > 1:
        return "\n\n".join(blocks[:1] + blocks[2:])
    lines = text.splitlines(keepends=True)
    return "".join(lines[:1] + lines[2:])


@pytest.mark.parametrize("name", list(FIXTURE_CHECKS))
def test_fixture_checks_refuse_a_corrupted_golden(fixtures, name):
    check, text = FIXTURE_CHECKS[name], (fixtures / name).read_text()
    assert check(text) is True
    assert check(_change_digit(text, 0)) is False
    assert check(_change_digit(text, -1)) is False
    if len(text.splitlines()) > 2:  # the one-step figures hold a state and its successor, nothing to drop
        assert check(_drop_second(text)) is False
    if name == "sec6_p_symbol.txt":  # P is conserved, so the fixture holds it once
        assert check(text + "\n" + text) is False


@pytest.mark.parametrize("name", list(FIXTURE_CHECKS))
def test_fixture_checks_refuse_a_truncated_golden(fixtures, name):
    """Empty, first line, first blank-line block, all but the last line: each fails unless it is the whole file."""
    text = (fixtures / name).read_text()
    lines = text.splitlines(keepends=True)
    cuts = ["", lines[0], text.partition("\n\n")[0], "".join(lines[:-1])]
    cuts = [cut for cut in cuts if cut.splitlines() != text.splitlines()]
    assert cuts
    for cut in cuts:
        assert FIXTURE_CHECKS[name](cut) is False, repr(cut)


@pytest.mark.parametrize("name", list(FIXTURE_CHECKS))
def test_verify_fails_an_emptied_fixture(capsys, tmp_path, fixtures, name):
    for other in FIXTURE_CHECKS:
        (tmp_path / other).write_text("" if other == name else (fixtures / other).read_text())
    assert main(["verify", "--cases", "1", "--fixtures", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    fixture_lines = [line for line in captured.out.splitlines() if line.startswith("fixture:")]
    expected = {other: "1/1 ok" for other in FIXTURE_CHECKS} | {name: "0/1 FAIL"}
    assert fixture_lines == [f"fixture:{other}: {result}" for other, result in expected.items()]


@pytest.mark.parametrize("name", ["sec5_fig4_advanced.txt", "sec5_fig5_generalized.txt"])
def test_one_step_fixture_check_refuses_a_single_line(fixtures, name):
    for line in (fixtures / name).read_text().splitlines():
        assert FIXTURE_CHECKS[name](line + "\n") is False
