#!/usr/bin/env python3
"""In-process CPU-time A/B of a revision against the working tree, job by job.

    python3 scripts/ab.py REV WORKLOAD OUT

Exports REV's ``src/`` with ``git archive`` into a temporary directory, with
no network, and imports both trees' ``boxball`` into this one process as
two module sets; each call puts its side's set into ``sys.modules`` first.
The jobs are the first 100 seed-1 jobs of WORKLOAD, made by
``perfbench/workloads.make_jobs`` from ``perfbench/spec.json``; the p50 and
p90 are ``perfbench/run.py``'s ``percentile``.  Those files are only read.  Each call runs ``boxball.cli.main(argv)`` with stdin and stdout
held in memory, from the repository root, so ``verify`` jobs on both sides
read the working tree's ``tests/fixtures``.

Each of 5 rounds runs every job on both sides.  The side that
runs a job first alternates from job to job and from round to round, and
each job keeps its least CPU time (``time.process_time``) over the rounds.
The first call whose (exit, stdout, stderr) differs between the sides ends
the run with exit 1 and names the call.

OUT holds one JSON object keyed by workload; a run replaces its own key and
keeps the others, so two runs fill one file.  Per side it records the p50,
p90 and sum of the per-job best times in ms, then the ratios working tree
over REV, and for each round how many jobs the working tree ran faster.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import platform
import pkgutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from time import process_time
from types import ModuleType

ROOT = Path(__file__).resolve().parents[1]
SEED = 1

# read only: the job list and the percentile of perfbench/run.py
sys.path.insert(0, str(ROOT / "perfbench"))
try:
    import workloads
    from run import percentile
finally:
    sys.path.remove(str(ROOT / "perfbench"))

Modules = dict[str, ModuleType]


class OutputsDiffer(Exception):
    """The two sides printed something different for one call."""


def unload() -> Modules:
    """Remove every ``boxball`` module from ``sys.modules`` and return them."""
    names = [name for name in sys.modules if name == "boxball" or name.startswith("boxball.")]
    return {name: sys.modules.pop(name) for name in names}


def load(src: Path) -> Modules:
    """Every module of the ``boxball`` package under ``src``, imported afresh and left out of ``sys.modules``."""
    unload()
    sys.path.insert(0, str(src))
    try:
        package = importlib.import_module("boxball")
        for info in pkgutil.iter_modules(package.__path__):
            if info.name != "__main__":  # it would run the command line
                importlib.import_module(f"boxball.{info.name}")
    finally:
        sys.path.remove(str(src))
    if Path(package.__file__).resolve().parent != (src / "boxball").resolve():
        raise SystemExit(f"ab: imported boxball from {package.__file__}, not from {src}")
    return unload()


def export(rev: str, into: Path) -> tuple[str, Path]:
    """(commit hash, its ``src`` directory) of REV, written under ``into`` by ``git archive``."""
    git = ["git", "-C", str(ROOT)]
    commit = subprocess.run([*git, "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            capture_output=True, text=True, check=True).stdout.strip()
    tar = subprocess.run([*git, "archive", "--format=tar", commit, "src"], capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(into, filter="data")
        else:  # Python before 3.10.12 and 3.11.4
            archive.extractall(into)
    return commit, into / "src"


def call(modules: Modules, argv: tuple[str, ...], text: str) -> tuple[tuple[int, str, str], float]:
    """((exit code, stdout, stderr), CPU seconds inside ``cli.main``) of one command line on one side."""
    unload()
    sys.modules.update(modules)
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), io.StringIO(), io.StringIO()
    start = process_time()
    try:
        code = modules["boxball.cli"].main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is an output like any other, to compare with the other side's
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        code = 1
    finally:
        seconds = process_time() - start
        result = code, sys.stdout.getvalue(), sys.stderr.getvalue()
        sys.stdin, sys.stdout, sys.stderr = saved
    return result, seconds


def make_jobs(workload: str, count: int) -> list:
    """The first ``count`` seed-1 jobs of a ``perfbench/spec.json`` workload."""
    spec = json.loads((ROOT / "perfbench" / "spec.json").read_text())["workloads"]
    if workload not in spec:
        raise SystemExit(f"ab: no workload {workload!r}; choose from {', '.join(sorted(spec))}")
    return workloads.make_jobs(workload, spec[workload], SEED)[:count]


def summary(ms: list[float]) -> dict[str, float]:
    """p50, p90 and sum of per-job times."""
    return {"p50": percentile(ms, 0.5), "p90": percentile(ms, 0.9), "sum": sum(ms)}


def compare(base_src: Path, change_src: Path, workload: str, jobs: int = 100, rounds: int = 5) -> dict:
    """Run the jobs on both trees, ``rounds`` times, and summarize each side's best CPU time per job.

    Raises ``OutputsDiffer`` at the first call whose output differs.
    ``sys.modules`` holds the same ``boxball`` modules afterwards as before.
    """
    todo = make_jobs(workload, jobs)
    if len(todo) < 2:
        raise ValueError("a comparison needs at least two jobs")
    saved = unload()
    try:
        sides = {"base": load(base_src), "change": load(change_src)}
        best = {side: [float("inf")] * len(todo) for side in sides}
        wins = []
        for r in range(rounds):
            won = 0
            for k, job in enumerate(todo):
                order = ("base", "change") if (r + k) % 2 == 0 else ("change", "base")
                outputs, ms = {}, {}
                for side in order:
                    gc.collect()
                    results = [call(sides[side], argv, job.text) for argv in job.calls]
                    outputs[side] = [result for result, _ in results]
                    ms[side] = sum(seconds for _, seconds in results) * 1e3
                    best[side][k] = min(best[side][k], ms[side])
                for argv, a, b in zip(job.calls, outputs["base"], outputs["change"]):
                    if a != b:
                        part = next(name for name, x, y in zip(("exit", "stdout", "stderr"), a, b) if x != y)
                        raise OutputsDiffer(f"{workload} seed {SEED} job {k}: `boxball {' '.join(argv)}` differs in {part}")
                won += ms["change"] < ms["base"]
            wins.append(won)
    finally:
        unload()
        sys.modules.update(saved)
    base, change = summary(best["base"]), summary(best["change"])
    return {
        "seed": SEED,
        "jobs": len(todo),
        "rounds": rounds,
        "base_ms": base,
        "change_ms": change,
        "ratio": {key: change[key] / base[key] for key in base},
        "round_wins": wins,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("rev", help="the git revision to compare the working tree with, e.g. HEAD~1")
    parser.add_argument("workload", help="a workload of perfbench/spec.json")
    parser.add_argument("out", type=Path, help="JSON file to write, keyed by workload")
    args = parser.parse_args(argv)
    out = args.out.resolve()
    os.chdir(ROOT)
    with tempfile.TemporaryDirectory() as tmp:
        commit, base_src = export(args.rev, Path(tmp))
        try:
            result = compare(base_src, ROOT / "src", args.workload)
        except OutputsDiffer as err:
            print(f"ab: {err}", file=sys.stderr)
            return 1
    result = {"base": f"{args.rev} ({commit})", "change": "working tree", **result}
    result["host"] = {"python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count()}
    report = json.loads(out.read_text()) if out.exists() else {}
    report[args.workload] = result
    out.write_text(json.dumps(report, indent=2) + "\n")
    ratio = result["ratio"]
    print(f"{args.workload}: p50 {ratio['p50']:.3f}x, p90 {ratio['p90']:.3f}x, sum {ratio['sum']:.3f}x of {args.rev}; "
          f"jobs faster per round {result['round_wins']} of {result['jobs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
