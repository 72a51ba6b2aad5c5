"""Runtime tracing of boxball's layers from the benchmark's own files.

``Tracer.install`` wraps the public functions of each boxball module and
rebinds every name that refers to them, in every loaded boxball module,
so ``cli.evolve`` and ``bbs.evolve`` both reach the wrapper.  A wrapped
call records a span (name, start, end, parent, job id, self time) in
memory.  The hot leaves (the slot-label methods of ``CapacityProfile`` and
``tab``) keep only a call count and their total time; that time is
subtracted from the enclosing span, so every traced second belongs to
exactly one layer.  ``Tracer.metrics`` checks that accounting: every root
span is ``cli.main``, no leaf runs outside a span, no self time is
negative, and the layer self times plus the harness time, which the
caller measures on its own, come to the traced time.

``CapacityProfile.capacity`` is a dictionary lookup called per shown box,
not part of the slot-label mapping; it is left unwrapped because a wrapper
would cost ten times the call.  ``rsk`` bumps through ``tableau._insert`` directly, which is left
unwrapped, so that bumping counts under ``rsk``.  ``knuth`` is not traced:
no CLI path reaches it.
"""

from __future__ import annotations

import inspect
import math
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "notation", "bbs", "bbs.capacity", "tableau", "rsk", "oracle", "verify")
MODULE_LAYER = {
    "boxball.cli": "cli",
    "boxball.notation": "notation",
    "boxball.bbs": "bbs",
    "boxball.tableau": "tableau",
    "boxball.rsk": "rsk",
    "boxball.oracle": "oracle",
    "boxball.verify": "verify",
}
# The cli layer is entered once per command line; its helpers count as its self time.
CLI_ENTRY = "main"
ROOT_SPAN = f"cli.{CLI_ENTRY}"
# how far (Σ layer self + harness) / traced time may stray from 1: the wrappers' own entry and exit
ACCOUNTED_TOLERANCE = 0.01
LEAF_METHODS = ("slot_end", "slot_range", "label_of_slot")
PRODUCTION_STEPS = ("original_step", "carrier_step", "reverse_step", "q_evolve")
STEPS = PRODUCTION_STEPS + ("naive_original_step",)
RENDERS = ("render_state", "render_trajectory")
# verify suites that are loops inside run_verification rather than _state_suite calls
SUITE_OF = {
    "check_rsk_roundtrip": "rsk-roundtrip",
    "random_biword": "rsk-roundtrip",
    "q_independence_instance": "q-independence",
}
SUITES = (
    "p-conservation", "algorithm-equivalence", "reversibility", "box-label-evolution",
    "carrier-knuth", "q-evolution", "reduction-commutation", "rsk-roundtrip",
    "q-independence", "fixtures",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, job, self seconds, tag)
        self.stack: list[list] = []  # open spans: [child seconds, id]
        self.next_id = 0
        self.job: int | None = None
        self.in_leaf: str | None = None
        self.leaf_calls: Counter[str] = Counter()
        self.leaf_seconds: Counter[str] = Counter()
        self.nested: Counter[tuple[str, str]] = Counter()
        self.tab_letters = 0
        self.orphan_leaf_calls = 0  # leaf calls with no open span
        self.problems: list[str] = []  # accounting faults found by metrics()
        self.layer_of: dict[str, str] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn, name: str, tag=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.in_leaf is not None:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else None
            frame = [0.0, tracer.next_id]
            tracer.next_id += 1
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent[0] += end - start
                label = tag(args) if callable(tag) else tag
                tracer.spans.append((frame[1], name, start, end, parent and parent[1],
                                     tracer.job, end - start - frame[0], label))

        return wrapper

    def _leaf(self, fn, name: str):
        tracer = self
        calls, nested = self.leaf_calls, self.nested

        def wrapper(*args, **kwargs):
            calls[name] += 1
            outer = tracer.in_leaf
            if outer is not None:
                nested[outer, name] += 1
                return fn(*args, **kwargs)
            tracer.in_leaf = name
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = perf_counter() - start
                tracer.in_leaf = None
                tracer.leaf_seconds[name] += spent
                if tracer.stack:
                    tracer.stack[-1][0] += spent
                else:
                    tracer.orphan_leaf_calls += 1

        return wrapper

    def _tab(self, fn):
        leaf = self._leaf(fn, "tab")
        tracer = self

        def tab(letters):
            letters = tuple(letters)
            tracer.tab_letters += len(letters)
            return leaf(letters)

        return tab

    # -- installation -----------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced function and rebind it in all loaded boxball modules."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "boxball" or name.startswith("boxball.")}
        replace: dict[int, object] = {}
        for modname, layer in MODULE_LAYER.items():
            module = modules[modname]
            for attr, value in vars(module).items():
                if not inspect.isfunction(value) or value.__module__ != modname:
                    continue
                if layer == "cli" and attr != CLI_ENTRY:
                    continue
                if attr.startswith("_") and attr != "_state_suite":
                    continue
                name = f"{layer}.{attr}"
                if attr == "tab":
                    replace[id(value)] = self._tab(value)
                    continue
                self.layer_of[name] = layer
                if attr == "_state_suite":
                    replace[id(value)] = self._span(value, name, tag=lambda args: args[0])
                else:
                    replace[id(value)] = self._span(value, name, SUITE_OF.get(attr) if layer == "verify" else None)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in replace and inspect.isfunction(value):
                    self._set(module, attr, replace[id(value)])
        profile = modules["boxball.bbs"].CapacityProfile
        for attr in LEAF_METHODS:
            self.layer_of[attr] = "bbs.capacity"
            self._set(profile, attr, self._leaf(vars(profile)[attr], attr))
        self.layer_of["tab"] = "tableau"
        self.layer_of["verify.fixture"] = "verify"
        checks = modules["boxball.verify"].FIXTURE_CHECKS
        for key, check in list(checks.items()):
            self._undo.append((checks, key, check))
            checks[key] = self._span(check, "verify.fixture", "fixtures")

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def write(self, path: Path) -> None:
        """Spans as tab-separated lines, then the leaf counters as comments."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write("id\tname\tstart\tend\tparent\tjob\tself_s\ttag\n")
            for span in self.spans:
                out.write("\t".join("" if x is None else str(x) for x in span) + "\n")
            for name in sorted(self.leaf_calls):
                out.write(f"# leaf {name} calls={self.leaf_calls[name]} "
                          f"seconds={self.leaf_seconds[name]!r}\n")

    def metrics(self, jobs: dict, traced_s: float, untraced_s: float, job_count: int,
                harness_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; ``jobs`` maps job id to its Job (for size classes).

        ``harness_s`` is the traced jobs' time outside ``cli.main``, timed by
        the caller.  Accounting faults go to ``self.problems``.
        """
        out: dict[str, tuple[float, str]] = {}
        self_s: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        duration: dict[str, list[float]] = defaultdict(list)
        by_class: dict[tuple[str, str], list[float]] = defaultdict(list)
        suite_s: Counter[str] = Counter()
        name_of = {span[0]: span[1] for span in self.spans}
        render_s = 0.0
        foreign_roots: Counter[str] = Counter()
        negative = 0
        for _, name, start, end, parent, job, own, tag in self.spans:
            layer = self.layer_of[name]
            self_s[layer] += own
            calls[layer] += 1
            attr = name.rsplit(".", 1)[1]
            duration[attr].append(end - start)
            size_class = jobs[job].size_class if job is not None else None
            if size_class and attr in PRODUCTION_STEPS:
                by_class[attr if attr == "q_evolve" else "step", size_class].append(end - start)
            if tag:
                suite_s[tag] += end - start
            if own < -1e-9:
                negative += 1
            if parent is None:
                if name != ROOT_SPAN:
                    foreign_roots[name] += 1
            elif attr in RENDERS and name_of[parent].rsplit(".", 1)[1] not in RENDERS:
                render_s += end - start
        for name, seconds in self.leaf_seconds.items():
            self_s[self.layer_of[name]] += seconds
            calls[self.layer_of[name]] += self.leaf_calls[name]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self_s[layer], "s")
            out[f"{layer}.share"] = (self_s[layer] / traced_s, "ratio")
            out[f"{layer}.calls"] = (calls[layer], "count")

        steps = sum(len(duration[name]) for name in STEPS)
        lookups = self.leaf_calls["label_of_slot"]
        out["bbs.capacity.lookups_per_step"] = (_ratio(lookups, steps), "count")
        out["bbs.capacity.slot_end_per_lookup"] = (_ratio(self.nested["label_of_slot", "slot_end"], lookups), "count")

        sizes = _class_sizes(jobs, {span[5] for span in self.spans})
        for prefix, key, classes in (("bbs.step_us", "step", ("small", "mid", "large")),
                                     ("bbs.q_evolve_us", "q_evolve", ("large",))):
            for size_class in classes:
                out[f"{prefix}.{size_class}"] = (_mean_us(by_class[key, size_class]), "us")
        out["bbs.step_growth"] = (_growth(sizes, by_class, "step"), "slope")
        out["bbs.q_evolve_growth"] = (_growth(sizes, by_class, "q_evolve"), "slope")

        lines = len(duration["render_state"])
        out["notation.render_us_per_line"] = (_ratio(render_s * 1e6, lines), "us")
        out["notation.parse_us"] = (_mean_us(duration["parse_state"]), "us")
        out["tableau.tab_letters"] = (_ratio(self.tab_letters, job_count), "count")
        out["tableau.tab_us_per_letter"] = (_ratio(self.leaf_seconds["tab"] * 1e6, self.tab_letters), "us")
        out["rsk.rsk_us"] = (_mean_us(duration["rsk"]), "us")
        out["rsk.inverse_rsk_us"] = (_mean_us(duration["inverse_rsk"]), "us")
        out["oracle.naive_step_us"] = (_mean_us(duration["naive_original_step"]), "us")
        for suite in SUITES:
            out[f"verify.suite_s.{suite}"] = (suite_s[suite], "s")

        accounted = (sum(self_s[layer] for layer in LAYERS) + harness_s) / traced_s
        out["trace.harness_s"] = (harness_s, "s")
        out["trace.overhead_s"] = (traced_s - untraced_s, "s")
        out["trace.accounted_share"] = (accounted, "ratio")

        self.problems = [f"{count} root span(s) named {name}, not {ROOT_SPAN}"
                         for name, count in sorted(foreign_roots.items())]
        if self.orphan_leaf_calls:
            self.problems.append(f"{self.orphan_leaf_calls} leaf call(s) outside any span")
        if negative:
            self.problems.append(f"{negative} span(s) with negative self time")
        if abs(accounted - 1) > ACCOUNTED_TOLERANCE:
            self.problems.append(f"layer self times plus harness time are {accounted:.4f} of the traced time")
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean_us(values: list[float]) -> float:
    return 1e6 * sum(values) / len(values) if values else 0.0


def _class_sizes(jobs: dict, traced: set) -> dict[str, float]:
    balls: dict[str, list[int]] = defaultdict(list)
    for job in traced:
        if job is not None and jobs[job].size_class:
            balls[jobs[job].size_class].append(jobs[job].balls)
    return {c: sum(v) / len(v) for c, v in balls.items()}


def _growth(sizes: dict[str, float], by_class: dict, key: str) -> float:
    """Least-squares slope of log(mean time) against log(mean balls) over the size classes."""
    points = [(math.log(sizes[c]), math.log(sum(v) / len(v)))
              for (k, c), v in by_class.items() if k == key and v and c in sizes]
    if len(points) < 2:
        return 0.0
    mx = sum(x for x, _ in points) / len(points)
    my = sum(y for _, y in points) / len(points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    return sum((x - mx) * (y - my) for x, y in points) / sxx if sxx else 0.0
