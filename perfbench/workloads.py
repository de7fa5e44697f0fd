"""Benchmark workloads: heated plates and solver settings generated from a seed.

Every workload uses the paper's plate: the default ramp edges (0 C on the
bottom and left edges, a linear 0..100 C ramp on the top and right edges) plus
random point heat sources and sinks. The plates and the sampler seeds come
from the workload seed alone, so the same seed always gives the same INI text.
"""

from dataclasses import dataclass

import numpy as np

SOURCES_PER_PLATE = 2  # heat sources; as many sinks again
STRENGTH_RANGE = (10.0, 30.0)  # |strength| added to b at the node


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "solve" or "sweep"
    m: int  # plate segments per side; (m-1)^2 unknowns
    plates: int  # distinct generated plates per run, each one command
    solver: dict
    sampler_seeds: int = 0  # > 0 makes the command a sweep over that many seeds


WORKLOADS = {
    w.name: w
    for w in (
        # few large QUBOs (27 bits each), all the time in the annealer
        Workload(
            "sa-sweep",
            "sweep",
            m=10,
            plates=1,
            solver={
                "backend": "sa", "blocks": 9, "bits": 3, "gamma": 0.8, "tol": 1e-3,
                "max_iters": 60, "num_reads": 15, "sweeps": 40,
            },
            sampler_seeds=2,
        ),
        # no QUBO work; identical blocks every sweep; dense reference algebra at n=841
        Workload(
            "exact-plate",
            "solve",
            m=30,
            plates=1,
            solver={"backend": "exact", "blocks": 29, "tol": 1e-6, "max_iters": 2000},
        ),
        # many small QUBOs (12 bits, 4,096 states) whose windows move every sweep
        Workload(
            "exhaustive-blocks",
            "solve",
            m=10,
            plates=4,
            solver={
                "backend": "exhaustive", "blocks": 27, "bits": 4, "gamma": 0.9, "tol": 1e-3,
                "max_iters": 120,
            },
        ),
    )
}


@dataclass(frozen=True)
class Plate:
    m: int
    sources: tuple[tuple[int, int, float], ...]  # (i, j, strength), interior nodes


def make_plate(rng: np.random.Generator, m: int) -> Plate:
    """SOURCES_PER_PLATE sources and as many sinks at distinct interior nodes."""
    side = m - 1
    count = 2 * SOURCES_PER_PLATE
    nodes = rng.choice(side * side, size=count, replace=False)
    sources = []
    for k, node in enumerate(nodes):
        magnitude = round(float(rng.uniform(*STRENGTH_RANGE)), 1)
        sign = 1.0 if k < SOURCES_PER_PLATE else -1.0
        sources.append((int(node % side) + 1, int(node // side) + 1, sign * magnitude))
    return Plate(m, tuple(sources))


def ini_text(workload: Workload, plate: Plate, sampler_seeds: list[int]) -> str:
    """INI config of one command; the first sampler seed is also the solver seed."""
    lines = [
        "[problem]",
        f"m = {plate.m}",
        "length = 1.0",
        "boundary = ramp",
        "sources = " + "; ".join(f"{i},{j},{s!r}" for i, j, s in plate.sources),
        "",
        "[solver]",
    ]
    lines += [f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}" for key, value in workload.solver.items()]
    lines.append(f"seed = {sampler_seeds[0]}")
    if workload.command == "sweep":
        s = workload.solver
        lines += [
            "",
            "[sweep]",
            f"bits = {s['bits']}",
            f"gammas = {s['gamma']!r}",
            f"backends = {s['backend']}",
            "seeds = " + ",".join(str(x) for x in sampler_seeds),
        ]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Case:
    """One generated command input: its plate, INI text and sampler seeds."""

    plate: Plate
    ini: str
    sampler_seeds: tuple[int, ...]


def make_cases(workload: Workload, seed: int) -> list[Case]:
    rng = np.random.default_rng([seed, *workload.name.encode()])
    cases = []
    for _ in range(workload.plates):
        plate = make_plate(rng, workload.m)
        seeds = [int(x) for x in rng.integers(0, 2**31, size=max(1, workload.sampler_seeds))]
        cases.append(Case(plate, ini_text(workload, plate, seeds), tuple(seeds)))
    return cases
