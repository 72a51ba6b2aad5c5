"""The public surface: the package's exports, the names the benchmark reads, the README's sketch,
the renderers' parameters and the golden fixtures' bytes.

``perfbench/`` imports the package from source and reaches into it by
name, so a cut that drops one of these breaks ``perfbench/run.py`` (with
``--trace 1`` for the tracer's names) rather than any test of behaviour.
"""

import hashlib
import inspect
import re
import shlex
from pathlib import Path

import boxball
import boxball.cli
import boxball.oracle
import boxball.tableau
import boxball.verify

EXPORTS = [
    "BiWord", "CapacityProfile", "Carrier", "InvariantError",
    "LabelSequence", "Shape", "State", "StateParseError", "Tableau", "UNIT_CAPACITY", "Word",
    "as_word", "biword_to_state", "box_label_sequence", "box_label_step", "carrier_pass",
    "carrier_step", "dual", "evolve", "inverse_rsk", "knuth_equivalent", "label_carrier",
    "make_biword", "matrix_of", "mirror", "p_symbol", "parse_state", "q_evolve", "q_symbol",
    "reduce_advanced_to_standard", "reduce_generalized_to_advanced", "render_biword",
    "render_state", "render_tableau", "render_trajectory", "reverse_step", "shape", "slot_word",
    "state_to_biword", "tab", "transpose", "word_of",
]

# sha256 of each golden fixture file; a change that edits a fixture on purpose updates this table
FIXTURE_SHA256 = {
    "sec3_timeline.txt": "5d7aeee6b0b2d8479bd0a1689f69835eee8f0de249dc011f0ced70849356328e",
    "sec5_advanced_timeline.txt": "4636099fe3c917c7b4804e2ad5227c8f509691e5456d60c1e0ffccfac9ade382",
    "sec5_fig4_advanced.txt": "44e874a78b29217832018f9120f79fdb6d0498f0e6ee069a701dc9201e6a548b",
    "sec5_fig5_generalized.txt": "f0a8ed8838f89bc49ff18e98ef71fadd57c3494c9fea847f9925b97f899df4be",
    "sec6_biwords.txt": "d7ae107d13c21e0fd2d14de7d112ef709e97d6ff4229f641e80b4a2f74524f95",
    "sec6_dual_biwords.txt": "bac67163b49efb7c03960fbe6b81290e217f51cf6873786c1276c3ce3368960b",
    "sec6_input.txt": "6ad398330eb29d86745fc1588a56cf6363528e3c885724c60107d142ef2ce057",
    "sec6_p_symbol.txt": "06ca42bebb9bf2105c70fd5bbabbbc4b310a22bdba854409f5afb79aa7e59bb3",
    "sec6_q_symbols.txt": "64540087cedf67abcb77ed3e9139d75a53634921c9159d43882e2998986375e5",
    "sec6_table1.txt": "f50bb1f2e0aafdc598e2c0ba1faa0aeca88fb1bc4fcc876fc79efbc9ff312dd8",
}


def test_exports_are_pinned_and_resolve():
    assert sorted(boxball.__all__) == EXPORTS
    for name in EXPORTS:
        assert getattr(boxball, name) is not None, name


def test_names_the_benchmark_reads_exist():
    assert callable(boxball.cli.main)  # each benchmark job calls it
    # the tracer wraps these methods through vars(CapacityProfile)[name]
    methods = vars(boxball.CapacityProfile)
    for name in ("slot_end", "slot_range", "label_of_slot"):
        assert callable(methods[name]), name
    assert callable(boxball.tableau.tab)
    # the tracer tags each _state_suite span with its first argument, the suite name
    assert next(iter(inspect.signature(boxball.verify._state_suite).parameters)) == "name"
    checks = boxball.verify.FIXTURE_CHECKS
    assert isinstance(checks, dict) and checks and all(map(callable, checks.values()))
    for name in ("tab", "Tableau", "inverse_rsk", "q_symbol", "parse_state", "evolve"):
        assert callable(getattr(boxball, name)), name
    assert callable(boxball.oracle.naive_original_step)


def test_oracle_holds_only_the_ball_moving_reference():
    public = {name for name, value in vars(boxball.oracle).items()
              if not name.startswith("_") and getattr(value, "__module__", None) == "boxball.oracle"}
    assert public == {"naive_original_step"}


def test_the_readme_library_sketch_runs(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_the_readme_names_only_real_commands():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```\n(boxball .*?)^```$", readme, re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    parser = boxball.cli.build_parser()
    for line in blocks[0].splitlines():
        prog, *argv = shlex.split(line, comments=True)
        assert prog == "boxball", line
        parser.parse_args(argv)  # an unknown command or option exits 2


def test_the_cli_docstring_names_exactly_the_commands():
    listing = boxball.cli.__doc__.partition("Subcommands:")[2].partition("\n\n")[0]
    assert re.findall(r"``(\w+)``", listing) == list(boxball.cli.COMMANDS)


def test_the_renderers_pick_the_notation_themselves():
    # the capacity profile fixes the notation, so neither renderer takes one
    for render, first in ((boxball.render_state, "s"), (boxball.render_trajectory, "states")):
        assert list(inspect.signature(render).parameters) == [first, "span", "empty", "anchor"]


def test_the_golden_fixtures_are_unchanged(fixtures):
    assert sorted(path.name for path in fixtures.iterdir()) == sorted(FIXTURE_SHA256)
    for name, digest in FIXTURE_SHA256.items():
        assert hashlib.sha256((fixtures / name).read_bytes()).hexdigest() == digest, name
