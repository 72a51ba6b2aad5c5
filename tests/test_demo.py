import re
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
DEMO = SCRIPTS / "demo.py"


def test_demo_script_runs():
    done = subprocess.run([sys.executable, str(DEMO)], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "conserved insertion tableau" in done.stdout


def test_growth_script_prints_one_row_per_size():
    for flavor in ("standard", "generalized"):
        argv = [str(SCRIPTS / "growth.py"), "100", "400", "--flavor", flavor]
        done = subprocess.run([sys.executable, *argv], capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        title, header, *rows = done.stdout.splitlines()
        assert title == f"# {flavor}, seed 1, best of 3"
        assert header.split() == ["balls", "step_s", "step_slope", "q_evolve_s", "q_evolve_slope"]
        time, slope = r"\d+\.\d{6}", r"-?\d+\.\d\d"
        assert re.fullmatch(rf"100 {time} - {time} -", rows[0])
        assert re.fullmatch(rf"400 {time} {slope} {time} {slope}", rows[1])
        assert len(rows) == 2


def test_loc_script_total_is_the_sum_of_its_rows():
    done = subprocess.run([sys.executable, str(SCRIPTS / "loc.py")], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    header, *rows, total = done.stdout.splitlines()
    assert header.split() == ["module", "code_lines"]
    counts = dict(row.split() for row in rows)
    assert {"bbs.py", "tableau.py", "rsk.py"} <= counts.keys()
    assert total.split() == ["total", str(sum(map(int, counts.values())))]


def test_unrun_script_selects_statements_and_entry_points(tmp_path):
    statements = runpy.run_path(str(SCRIPTS / "unrun.py"))["statements"]
    module = tmp_path / "__main__.py"
    module.write_text(
        '"""Doc."""\n'
        "import sys\n"
        "def f():\n"
        '    """Doc."""\n'
        "    return 1\n"
        "sys.exit(f())\n"
        'if __name__ == "__main__":\n'
        "    f()\n"
    )
    assert statements(module) == {5: False, 6: True, 7: False, 8: True}
    module = module.rename(tmp_path / "cli.py")
    assert statements(module) == {5: False, 6: False, 7: False, 8: True}


def test_ab_script_compares_the_working_tree_with_itself(tmp_path):
    ab = runpy.run_path(str(SCRIPTS / "ab.py"))
    src = SCRIPTS.parent / "src"
    result = ab["compare"](src, src, "standard", jobs=3, rounds=2)
    assert (result["jobs"], result["rounds"], len(result["round_wins"])) == (3, 2, 2)
    for side in ("base_ms", "change_ms"):
        assert 0 < result[side]["p50"] <= result[side]["p90"] <= result[side]["sum"]
    assert set(result["ratio"]) == {"p50", "p90", "sum"}
    # a tree that prints vacancies as e stops the run at its first evolve call
    shutil.copytree(src / "boxball", tmp_path / "boxball", ignore=shutil.ignore_patterns("__pycache__"))
    notation = tmp_path / "boxball" / "notation.py"
    notation.write_text(notation.read_text().replace('empty: str = "_"', 'empty: str = "e"'))
    with pytest.raises(ab["OutputsDiffer"]) as err:
        ab["compare"](src, tmp_path, "standard", jobs=3, rounds=2)
    assert str(err.value) == "standard seed 1 job 0: `boxball evolve --steps 8` differs in stdout"


def test_ab_script_exports_a_revision_that_it_can_load(tmp_path):
    root = SCRIPTS.parent
    head = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True)
    if head.returncode != 0:
        pytest.skip("not a git checkout: there is no revision to export")
    ab = runpy.run_path(str(SCRIPTS / "ab.py"))
    commit, src = ab["export"]("HEAD", tmp_path)
    assert (commit, src) == (head.stdout.strip(), tmp_path / "src")
    assert (src / "boxball" / "cli.py").is_file()
    for workload in ("standard", "verify"):  # verify jobs run every suite and read tests/fixtures
        result = ab["compare"](src, src, workload, jobs=3, rounds=1)
        assert (result["jobs"], result["rounds"], len(result["round_wins"])) == (3, 1, 1)


def test_a_failing_hypothesis_test_is_reported_and_the_session_goes_on(tmp_path):
    # on a failure Hypothesis drafts a patch through libcst, whose import warns under filterwarnings = ["error"]
    (tmp_path / "test_two.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 0\n"
        "\n"
        "def test_passes():\n"
        "    pass\n"
    )
    argv = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(SCRIPTS.parent / "pyproject.toml"),
            "--rootdir", str(tmp_path), "test_two.py"]
    done = subprocess.run([sys.executable, *argv], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert done.returncode == 1
    assert "1 failed, 1 passed" in done.stdout
