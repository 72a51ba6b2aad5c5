"""Seeded input generators and the job lists of the four workloads.

A job is one or more ``boxball`` command lines that read the same
generated state text from stdin.  The same workload name and seed always
give the same job list; the parameters come from ``spec.json``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

CLASS_ORDER = ("small", "mid", "large")


@dataclass(frozen=True)
class Job:
    index: int
    calls: tuple[tuple[str, ...], ...]
    text: str = ""
    size_class: str | None = None
    balls: int = 0
    nonpositive: bool = False
    oracle: bool = False


def make_jobs(name: str, spec: dict, seed: int) -> list[Job]:
    """The workload's job list for one seed, ``spec["pool"]`` jobs long."""
    rng = random.Random(f"{name}:{seed}")
    if name == "verify":
        seeds = rng.sample(range(1, 2**31), spec["pool"])
        return [
            Job(k, tuple(tuple(arg.format(seed=s) for arg in argv) for argv in spec["jobs"]))
            for k, s in enumerate(seeds)
        ]
    calls = tuple(tuple(argv) for argv in spec["jobs"])
    every = spec["nonpositive_every"]
    jobs = []
    for k in range(spec["pool"]):
        size_class = CLASS_ORDER[k % 3]
        params = spec["classes"][size_class]
        balls = rng.randint(*params["balls"])
        distinct = {"distinct": True, "upto9": False, "alternate": (k // 3) % 2 == 0}[params["colors"]]
        colors = rng.sample(range(1, balls + 1), balls) if distinct else [rng.randint(1, 9) for _ in range(balls)]
        nonpositive = bool(every) and k % every == every - 1
        if spec["notation"] == "compact":
            text = compact_text(rng, colors, spec["boxes_per_ball"], nonpositive)
        else:
            text = walled_text(rng, colors, spec["capacities"], nonpositive)
        jobs.append(Job(k, calls, text, size_class, balls, nonpositive, balls <= spec["oracle_max_balls"]))
    return jobs


def compact_text(rng: random.Random, colors: list[int], boxes_per_ball: int, nonpositive: bool) -> str:
    """Capacity-1 boxes at the given density, shown from the first to the last ball.

    The first ball sits at label 1, or at a label in -9..0 when ``nonpositive``.
    """
    places = sorted(rng.sample(range(boxes_per_ball * len(colors)), len(colors)))
    tokens = ["_"] * (places[-1] - places[0] + 1)
    for place, color in zip(places, colors):
        tokens[place - places[0]] = str(color)
    first = 1 - rng.randint(1, 10) if nonpositive else 1
    return f"@{first} " + (" " if max(colors) > 9 else "").join(tokens)


def walled_text(rng: random.Random, colors: list[int], caps: dict, nonpositive: bool) -> str:
    """Boxes of random capacity holding ``slots_per_ball`` slots per ball, balls in random slots.

    The first shown box has label 1; when ``nonpositive`` the anchor moves so
    that the first occupied box sits at a label in -9..0.
    """
    capacities: list[int] = []
    while sum(capacities) < caps["slots_per_ball"] * len(colors):
        capacities.append(rng.randint(caps["min"], caps["max"]))
    slots = [(box, k) for box, cap in enumerate(capacities) for k in range(cap)]
    contents: list[list[int]] = [[] for _ in capacities]
    for (box, _), color in zip(rng.sample(slots, len(colors)), colors):
        contents[box].append(color)
    sep = " " if max(colors) > 9 else ""
    parts = [
        sep.join(["e"] * (cap - len(held)) + [str(c) for c in sorted(held)])
        for cap, held in zip(capacities, contents)
    ]
    body = "|" + "|".join(parts) + "|"
    if not nonpositive:
        return body
    first_occupied = next(box for box, held in enumerate(contents) if held)
    return f"@{1 - rng.randint(1, 10) - first_occupied}{body}"
