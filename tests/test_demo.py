import subprocess
import sys
from pathlib import Path

DEMO = Path(__file__).resolve().parents[1] / "scripts" / "demo.py"


def test_demo_script_runs():
    done = subprocess.run([sys.executable, str(DEMO)], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "conserved insertion tableau" in done.stdout
