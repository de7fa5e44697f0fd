"""Fixed corpus of small QUBO problems shared by sampler and acceptance tests."""

import numpy as np

from qubogs.encoding import BinaryEncoding, QuboProblem, encode
from qubogs.heatgrid import HeatProblem, assemble_system
from qubogs.linear import LinearSystem


def small_corpus() -> list[tuple[str, QuboProblem]]:
    """Named problems, every one within 12 binary variables."""
    problems = []
    unit = LinearSystem.from_dense([[1.0]], [1.0])
    problems.append(("unit-1bit", encode(unit, BinaryEncoding.uniform(1, 1, 1.0, 0.0))))

    demo = LinearSystem.from_dense([[2.0, 1.0], [1.0, 2.0]], [3.0, 3.0])
    problems.append(("demo-R2", encode(demo, BinaryEncoding.uniform(2, 2, 1.0, 0.0))))
    problems.append(("demo-R3", encode(demo, BinaryEncoding.uniform(2, 3, 1.0, 0.0))))

    heat = assemble_system(HeatProblem(3))
    problems.append(("heat-m3-R3", encode(heat, BinaryEncoding.uniform(4, 3, 50.0, 0.0))))

    rng = np.random.default_rng(424242)
    k = 0
    while k < 12:
        n = int(rng.integers(1, 5))
        bits = int(rng.integers(1, 4))
        if n * bits > 12:
            continue
        a = rng.uniform(-2.0, 2.0, (n, n))
        b = rng.uniform(-2.0, 2.0, n)
        scale = rng.uniform(0.5, 2.0, n)
        offset = rng.uniform(-1.0, 1.0, n)
        enc = BinaryEncoding(n, bits, scale, offset)
        problems.append((f"rand-{k}", encode(LinearSystem.from_dense(a, b), enc)))
        k += 1

    problems.append(("linear-only", QuboProblem(4, np.array([0.5, -1.0, 2.0, -0.25]), np.zeros((4, 4)), 0.0)))
    problems.append(("all-zero", QuboProblem(3, np.zeros(3), np.zeros((3, 3)), 0.0)))
    return problems
