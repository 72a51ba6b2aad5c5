"""The public surface: the package's exports, and the names the benchmark reads.

``perfbench/`` imports the package from source and reaches into it by
name, so a cut that drops one of these breaks ``perfbench/run.py`` (with
``--trace 1`` for the tracer's names) rather than any test of behaviour.
"""

import inspect

import boxball
import boxball.cli
import boxball.oracle
import boxball.tableau
import boxball.verify

EXPORTS = [
    "BiWord", "CapacityProfile", "Carrier", "EMPTY_BIWORD", "EMPTY_TABLEAU", "InvariantError",
    "LabelSequence", "Shape", "State", "StateParseError", "Tableau", "UNIT_CAPACITY", "Word",
    "as_word", "biword_to_state", "box_label_sequence", "box_label_step", "carrier_pass",
    "carrier_step", "dual", "evolve", "inverse_rsk", "knuth_equivalent", "label_carrier",
    "make_biword", "matrix_of", "mirror", "p_symbol", "parse_state", "q_evolve", "q_symbol",
    "reduce_advanced_to_standard", "reduce_generalized_to_advanced", "render_biword",
    "render_state", "render_tableau", "render_trajectory", "reverse_step", "shape", "slot_word",
    "state_to_biword", "tab", "transpose", "word_of",
]


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
