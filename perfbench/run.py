"""Seeded end-to-end and per-layer benchmark of the boxball command line.

Run from the repository root:

    python3 perfbench/run.py --workload standard --seed 1 --seconds 52 --trace 0

Each job calls ``boxball.cli.main(argv)`` in this process, closed loop with
one client, stdin and stdout held in memory.  A run makes passes over the
same jobs.  The first pass checks every output after its job, outside the
timed region; later passes repeat the jobs in the same order and must
print the same outputs.

The first pass is the first ``min_jobs`` jobs, so that ten samples lie
beyond p90.  With ``--trace 0`` more passes follow, each after a fresh
set-up, for as long as one more pass still fits in ``--seconds``; there are
at least two.  Each job counts with its median pass, and ``setup_s`` is
the median of the set-ups before each pass: the host this was built on (a
2-vCPU VM) slows down by up to 1.6x for 10-20 s at a time, and medians of
repeats several seconds apart keep most of that out of the end-to-end
metrics.  With
``--trace 1`` one replay of the first pass runs under ``tracing.Tracer``
for the per-layer metrics.  Every metric is printed as ``name value
unit``; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``spec.json`` defines the workloads.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import resource
import statistics
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
END_TO_END_UNITS = {
    "setup_s": "s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "cases_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class SetupError(RuntimeError):
    """The checkout lacks what the benchmark needs; no result is printed."""


@dataclass
class Outcome:
    job: workloads.Job
    seconds: float
    failure: str | None = None  # nonzero exit or failed output check
    wrong: bool = False  # an output check failed
    cases: int = 0
    ball_steps: int = 0
    out_bytes: int = 0
    digest: int = 0
    harness_s: float = 0.0  # job time outside cli.main


def load_spec() -> dict:
    return json.loads((HERE / "spec.json").read_text())


def load_program():
    """Import boxball from this checkout's ``src/``, dropping any earlier import."""
    package = ROOT / "src" / "boxball"
    if not (package / "__init__.py").is_file():
        raise SetupError(f"no boxball sources at {package}")
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    for name in [n for n in sys.modules if n == "boxball" or n.startswith("boxball.")]:
        del sys.modules[name]
    bx = importlib.import_module("boxball")
    importlib.import_module("boxball.cli")
    importlib.import_module("boxball.oracle")
    if Path(bx.__file__).resolve().parent != package.resolve():
        raise SetupError(f"imported boxball from {bx.__file__}, not from {package}")
    return bx


def set_up(name: str, seed: int, spec: dict):
    """Import the program afresh and generate the jobs; (seconds, program, jobs)."""
    start = perf_counter()
    bx = load_program()
    jobs = workloads.make_jobs(name, spec["workloads"][name], seed)
    return perf_counter() - start, bx, jobs


def call(cli, argv: tuple[str, ...], text: str) -> tuple[int, str, str, float]:
    """(exit code, stdout, stderr, seconds inside cli.main) of one in-process command line."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), io.StringIO(), io.StringIO()
    entered = perf_counter()
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash fails the job; the run goes on
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        code = 1
    finally:
        inside = perf_counter() - entered
        out, err = sys.stdout.getvalue(), sys.stderr.getvalue()
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out, err, inside


def _steps(argv: tuple[str, ...]) -> int:
    return int(argv[argv.index("--steps") + 1])


def check_job(bx, job: workloads.Job, results) -> tuple[str | None, bool, int, int]:
    """(first failure or None, whether an output check failed, randomized cases, ball-steps)."""
    ok = {argv[0]: (argv, out) for argv, code, out, _ in results if code == 0}
    exits = [f"{argv[0]} exited {code}: {err.strip()[-200:]}"
             for argv, code, _, err in results if code != 0]
    problems = []
    cases = ball_steps = 0
    try:
        if "verify" in ok:
            problem, cases = checks.check_verify(ok["verify"][1])
            problems.append(problem)
        if "evolve" in ok:
            argv, out = ok["evolve"]
            problems.append(checks.check_evolve(bx, job.text, out, _steps(argv), job.oracle))
            ball_steps += job.balls * _steps(argv)
        if "qsymbol" in ok:
            argv, out = ok["qsymbol"]
            steps = _steps(argv)
            if "evolve" in ok:
                state_t = bx.parse_state(ok["evolve"][1].splitlines()[steps])
            else:
                state_t = bx.evolve(bx.parse_state(job.text), steps)[-1]
            q0 = checks.read_rsk(ok["rsk"][1])[5] if "rsk" in ok else None
            problems.append(checks.check_qsymbol(bx, out, steps, state_t, q0))
            ball_steps += job.balls * steps
        if "rsk" in ok:
            problems.append(checks.check_rsk(bx, job.text, ok["rsk"][1]))
    except Exception as exc:  # output the checks cannot read is wrong output
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    problems = [p for p in problems if p]
    failures = exits + problems
    if problems:
        ball_steps = 0
    elif job.size_class is not None and not exits:
        cases = 1
    return (failures[0] if failures else None), bool(problems), cases, ball_steps


def run_jobs(bx, jobs, order, tracer=None, expect=None, corrupt=None) -> list[Outcome]:
    """Run the job indices in ``order``, in that order.

    ``expect`` maps job index to the output digest of an earlier run of the
    same job; when given, outputs are compared with it instead of checked
    afresh.  ``corrupt`` rewrites a job's results before checking (self-test).
    """
    cli = sys.modules["boxball.cli"]
    outcomes: list[Outcome] = []
    for index in order:
        job = jobs[index]
        gc.collect()
        if tracer is not None:
            tracer.job = job.index
        start = perf_counter()
        calls = [(argv, *call(cli, argv, job.text)) for argv in job.calls]
        seconds = perf_counter() - start
        if tracer is not None:
            tracer.job = None
        results = [(argv, code, out, err) for argv, code, out, err, _ in calls]
        if corrupt is not None:
            results = corrupt(job, results)
        outcome = Outcome(job, seconds, out_bytes=sum(len(out) for _, _, out, _ in results),
                          digest=hash(tuple((code, out) for _, code, out, _ in results)),
                          harness_s=seconds - sum(inside for *_, inside in calls))
        if expect is not None:
            if outcome.digest != expect[job.index]:
                outcome.failure, outcome.wrong = "output differs from the first pass", True
            elif any(code != 0 for _, code, _, _ in results):
                outcome.failure = "nonzero exit, as in the first pass"
        else:
            outcome.failure, outcome.wrong, outcome.cases, outcome.ball_steps = check_job(bx, job, results)
        outcomes.append(outcome)
    return outcomes


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between the closest ranks."""
    ranked = sorted(values)
    pos = q * (len(ranked) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ranked) - 1)
    return ranked[lo] + (ranked[hi] - ranked[lo]) * (pos - lo)


def end_to_end(outcomes: list[Outcome], setup_s: float, measured_s: float) -> tuple[dict, dict]:
    """(metrics for the JSON line, extra report-only figures) over median-pass job times."""
    timed_s = sum(o.seconds for o in outcomes)
    # A failed job ranks as slowest: it counts as taking the whole run.
    ms = [o.seconds * 1e3 if o.failure is None else measured_s * 1e3 for o in outcomes]
    failed = sum(o.failure is not None for o in outcomes)
    metrics = {
        "setup_s": setup_s,
        "job_p50_ms": percentile(ms, 0.5),
        "job_p90_ms": percentile(ms, 0.9),
        "cases_per_s": sum(o.cases for o in outcomes) / timed_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {
        "ball_steps_per_s": (sum(o.ball_steps for o in outcomes) / timed_s, "1/s"),
        "fail_ratio": (failed / len(outcomes), "ratio"),
        "nonpositive_ratio": (sum(o.job.nonpositive for o in outcomes) / len(outcomes), "ratio"),
        "jobs": (len(outcomes), "count"),
        "timed_s": (timed_s, "s"),
        "measured_s": (measured_s, "s"),
    }
    return metrics, extra


def median_pass(passes: list[list[Outcome]]) -> list[Outcome]:
    """Each job with its median time over the passes; a job fails when any pass failed."""
    out = []
    for runs in zip(*passes):
        failures = [o.failure for o in runs if o.failure]
        out.append(replace(runs[0], seconds=statistics.median(o.seconds for o in runs),
                           failure=failures[0] if failures else None,
                           wrong=any(o.wrong for o in runs)))
    return out


def measure(spec: dict, name: str, seed: int, seconds: float, trace: bool, corrupt=None) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    if name == "verify" and not (ROOT / "tests" / "fixtures").is_dir():
        raise SetupError("tests/fixtures is missing")
    setup_s, bx, jobs = set_up(name, seed, spec)
    setups = [setup_s]
    first = run_jobs(bx, jobs, range(spec["min_jobs"]), corrupt=corrupt)
    replay = {"order": [o.job.index for o in first], "expect": {o.job.index: o.digest for o in first}}
    if trace:
        tracer = tracing.Tracer()
        try:
            tracer.install()
            second = run_jobs(bx, jobs, tracer=tracer, corrupt=corrupt, **replay)
        finally:
            tracer.uninstall()
        traced_s = sum(o.seconds for o in second)
        report = tracer.metrics({job.index: job for job in jobs}, traced_s,
                                sum(o.seconds for o in first), len(second),
                                sum(o.harness_s for o in second))
        report["notation.out_bytes"] = (sum(o.out_bytes for o in second) / len(second), "bytes")
        tracer.write(HERE / "out" / f"{name}-seed{seed}.spans.tsv")
        metrics = {k: v for k, (v, _) in report.items()}
        counted = first + second
    else:
        passes = [first]
        measured_s = pass_s = sum(o.seconds for o in first)
        while len(passes) < 2 or measured_s + pass_s <= seconds:
            setup_s, bx, jobs = set_up(name, seed, spec)
            setups.append(setup_s)
            passes.append(run_jobs(bx, jobs, corrupt=corrupt, **replay))
            pass_s = sum(o.seconds for o in passes[-1])
            measured_s += pass_s
        counted = median_pass(passes)
        metrics, extra = end_to_end(counted, statistics.median(setups), measured_s)
        extra["setups"] = (len(setups), "count")
        extra["passes"] = (len(passes), "count")
        report = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()} | extra
    correct = not any(o.wrong for o in counted)
    if trace and tracer.problems:
        for problem in tracer.problems:
            print(f"perfbench: trace: {problem}", file=sys.stderr)
        correct = False
    for o in [o for o in counted if o.failure][:5]:
        print(f"failed: workload={name} seed={seed} job={o.job.index}: {o.failure}", file=sys.stderr)
    for key, (value, unit) in report.items():
        print(f"{key} {value} {unit}")
    return {
        "correct": correct,
        "attempted": len(counted),
        "failed": sum(o.failure is not None for o in counted),
        "metrics": {k: {"value": v, "unit": report[k][1]} for k, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    parser.add_argument("--seed", type=int, default=spec["default_seed"])
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    try:
        result = measure(spec, args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
