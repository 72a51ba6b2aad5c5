"""Smoke-size self-test of the benchmark.

Run from the repository root:

    python3 perfbench/selftest.py

It runs every workload of spec.json for about a second, untraced and
traced, and checks that each metric named in BENCHMARK.json (plus the report-only
``ball_steps_per_s`` and ``fail_ratio``) is printed with its unit; that a
deliberately corrupted job output, in the first or the second pass, is
counted as failed, in ``fail_ratio`` and in ``correct``; that the tracer
flags a span opened outside ``cli.main``; and that a directory holding
only BENCHMARK.json and perfbench/ makes the benchmark exit nonzero
without a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from time import perf_counter

import run
import tracing

SMOKE_SECONDS = 1.0
REPORT_ONLY = {"ball_steps_per_s": "1/s", "fail_ratio": "ratio"}


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest: {message}")


def measure(name: str, trace: bool, corrupt=None) -> tuple[dict, dict[str, tuple[float, str]]]:
    """The result object and the ``name value unit`` lines of one smoke run."""
    spec = run.load_spec()
    spec["min_jobs"] = 1
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        result = run.measure(spec, name, 1, SMOKE_SECONDS, trace, corrupt)
    lines = re.findall(r"^(\S+) (\S+) (\S+)$", printed.getvalue(), re.M)
    return result, {key: (float(value), unit) for key, value, unit in lines}


def stall_last_step(job, results):
    """Job 0's trajectory repeats its second-to-last line: a step that did not happen."""
    if job.index != 0:
        return results
    argv, code, out, err = results[0]
    lines = out.splitlines()
    lines[-1] = lines[-2]
    return [(argv, code, "\n".join(lines) + "\n", err)] + results[1:]


class SecondPassOnly:
    """Corrupt job 0 only when it runs the second time, so only the replay differs."""

    def __init__(self) -> None:
        self.seen = 0

    def __call__(self, job, results):
        if job.index != 0:
            return results
        self.seen += 1
        return stall_last_step(job, results) if self.seen == 2 else results


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in run.load_spec()["workloads"]:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, lines = measure(workload, trace)
            expect(result["correct"], f"{workload} trace={trace}: an output check failed")
            named = {m["name"]: m["unit"] for m in bench[key]}
            reported = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(reported == named, f"{workload} trace={trace}: JSON metrics {sorted(set(reported) ^ set(named))} differ from BENCHMARK.json")
            if not trace:
                named |= REPORT_ONLY
            for metric, unit in named.items():
                expect(lines.get(metric, (0, None))[1] == unit, f"{workload}: {metric} not printed with unit {unit}")
        print(f"selftest: {workload} prints every metric with its unit")

    result, lines = measure("long-run", False, stall_last_step)
    expect(not result["correct"], "a corrupted output left correct=true")
    expect(result["failed"] == 1, f"a corrupted output gave failed={result['failed']}, expected 1")
    expect(lines["fail_ratio"][0] == 1 / result["attempted"], "the corrupted job is missing from fail_ratio")
    result, lines = measure("long-run", False, SecondPassOnly())
    expect(not result["correct"] and result["failed"] == 1, "a second pass that differs went unnoticed")
    print("selftest: a corrupted job output counts in fail_ratio, in either pass")

    bx = run.load_program()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        start = perf_counter()
        bx.parse_state("@1 1_2")
        traced_s = perf_counter() - start
    finally:
        tracer.uninstall()
    tracer.metrics({}, traced_s, traced_s, 1, 0.0)
    expect(any("root span" in p for p in tracer.problems), "a span outside cli.main went unnoticed")
    print("selftest: the tracer flags a span opened outside cli.main")

    bare = run.HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "standard", "--seconds", "1"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(), "a bare directory did not fail cleanly")
    print("selftest: without the program the benchmark exits nonzero and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
