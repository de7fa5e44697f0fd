import numpy as np
import pytest

from qubogs.heatgrid import HeatProblem, assemble_system
from qubogs.reference import direct_solve

# One seed for every stochastic assertion in the suite.
SUITE_SEED = 90210


@pytest.fixture(scope="session")
def heat_demo():
    """The 81-unknown ramp-heated plate (9x9 interior grid) with its exact solution."""
    problem = HeatProblem(10)
    system = assemble_system(problem)
    exact = direct_solve(system)
    return problem, system, exact


@pytest.fixture(scope="session")
def demo_2x2():
    from qubogs.linear import LinearSystem

    system = LinearSystem.from_dense([[2.0, 1.0], [1.0, 2.0]], [3.0, 3.0])
    return system, np.array([1.0, 1.0])


@pytest.fixture
def singular_value_calls(monkeypatch):
    """(routine, shape) of every ``np.linalg.svd`` and ``np.linalg.eigvalsh`` call, in order: one per pass of singular values."""
    calls = []
    for name in ("svd", "eigvalsh"):

        def spy(a, *args, _name=name, _routine=getattr(np.linalg, name), **kwargs):
            calls.append((_name, a.shape))
            return _routine(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    return calls
