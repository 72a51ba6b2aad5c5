import re
import runpy
import subprocess
import sys
from pathlib import Path

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
