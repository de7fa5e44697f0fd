import numpy as np
import pytest
from numpy.testing import assert_allclose

from qubogs.blocksolve import gs_sweep, partition, residual
from qubogs.heatgrid import HeatProblem, assemble_system
from qubogs.linear import LinearSystem
from qubogs.reference import direct_solve


def test_dense_round_trip():
    a = np.array([[2.0, 0.0, 1.0], [0.0, 3.0, 0.0], [-1.0, 0.0, 4.0]])
    b = np.array([1.0, 2.0, 3.0])
    system = LinearSystem.from_dense(a, b)
    assert_allclose(system.to_dense(), a)
    assert system.rows.tolist() == [0, 0, 1, 2, 2]
    assert system.cols.tolist() == [0, 2, 1, 0, 2]
    assert system.vals.tolist() == [2.0, 1.0, 3.0, -1.0, 4.0]


def test_matvec_matches_dense():
    rng = np.random.default_rng(5)
    a = rng.uniform(-1, 1, (7, 7))
    a[rng.random((7, 7)) < 0.5] = 0.0
    np.fill_diagonal(a, 2.0)
    system = LinearSystem.from_dense(a, rng.uniform(-1, 1, 7))
    x = rng.uniform(-1, 1, 7)
    assert_allclose(system.matvec(x), a @ x, atol=1e-14)


def test_validation():
    ok = ([0, 1], [0, 1], [1.0, 1.0])
    LinearSystem(2, *ok, np.zeros(2))
    with pytest.raises(ValueError):
        LinearSystem(2, [1, 0], [0, 1], [1.0, 1.0], np.zeros(2))  # rows out of order
    with pytest.raises(ValueError):
        LinearSystem(2, [0, 0], [1, 0], [1.0, 1.0], np.zeros(2))  # columns out of order within a row
    with pytest.raises(ValueError):
        LinearSystem(2, [0, 0], [1, 1], [1.0, 1.0], np.zeros(2))  # repeated (row, col)
    with pytest.raises(ValueError):
        LinearSystem(1, [0], [4], [1.0], np.zeros(1))  # column out of range
    with pytest.raises(ValueError):
        LinearSystem(2, [0, 2], [0, 1], [1.0, 1.0], np.zeros(2))  # row out of range
    with pytest.raises(ValueError):
        LinearSystem(2, [-1, 0], [0, 1], [1.0, 1.0], np.zeros(2))  # negative index
    with pytest.raises(ValueError):
        LinearSystem(2, [0, 1], [0, 1], [1.0], np.zeros(2))  # arrays of unequal length
    with pytest.raises(ValueError):
        LinearSystem(2, *ok, np.zeros(3))  # rhs length
    with pytest.raises(ValueError):
        LinearSystem.from_dense(np.zeros((2, 3)), np.zeros(2))  # not square
    with pytest.raises(ValueError):
        LinearSystem(2, *ok, np.zeros(2)).matvec(np.zeros(3))
    # a non-finite entry would only surface later, as NaN residuals or a failed SVD
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            LinearSystem.from_dense([[2.0, 0.0], [0.0, 2.0]], [1.0, bad])
        with pytest.raises(ValueError, match="finite"):
            LinearSystem.from_dense([[2.0, bad], [0.0, 2.0]], [1.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            LinearSystem(2, [0, 1], [0, 1], [1.0, bad], np.zeros(2))


def loop_rows(a: np.ndarray) -> list[list[tuple[int, float]]]:
    """The nonzeros of a dense matrix as per-row (column, value) lists in column order."""
    return [[(j, float(a[i, j])) for j in range(a.shape[1]) if a[i, j] != 0.0] for i in range(a.shape[0])]


def loop_matvec(rows: list[list[tuple[int, float]]], x: np.ndarray) -> np.ndarray:
    out = np.zeros(len(rows))
    for i, row in enumerate(rows):
        s = 0.0
        for j, v in row:
            s += v * x[j]
        out[i] = s
    return out


def loop_subsystem(rows: list[list[tuple[int, float]]], b: np.ndarray, lo: int, hi: int, x: np.ndarray):
    """Dense diagonal block lo:hi and its right-hand side with off-block terms folded in, row by row."""
    a = np.zeros((hi - lo, hi - lo))
    rhs = np.empty(hi - lo)
    for i in range(lo, hi):
        s = 0.0
        for j, v in rows[i]:
            if lo <= j < hi:
                a[i - lo, j - lo] += v
            else:
                s += v * x[j]
        rhs[i - lo] = b[i] - s
    return a, rhs


def swept_blocks(system: LinearSystem, part, x: np.ndarray) -> list:
    """The (block system, lo, hi) that gs_sweep hands its block solver at iterate x.

    The recording solver returns x[lo:hi] unchanged, so every block sees x.
    """
    seen = []

    def record(sub, lo, hi):
        seen.append((sub, lo, hi))
        return x[lo:hi]

    gs_sweep(system, part, x, record)
    return seen


def assert_matches_loops(system: LinearSystem, a: np.ndarray, x: np.ndarray, part) -> None:
    rows = loop_rows(a)
    ax = loop_matvec(rows, x)
    assert np.array_equal(system.matvec(x), ax)
    r = float(np.linalg.norm(ax - system.b))
    b_norm = float(np.linalg.norm(system.b))
    assert residual(system, x) == (r if b_norm == 0.0 else r / b_norm)
    seen = swept_blocks(system, part, x)
    assert [(lo, hi) for _, lo, hi in seen] == part.blocks
    for sub, lo, hi in seen:
        block, rhs = loop_subsystem(rows, system.b, lo, hi, x)
        assert np.array_equal(sub.to_dense(), block)
        assert np.array_equal(sub.b, rhs)


class TestLoopOracle:
    """The coordinate arrays sum every row in the order of the per-row loops, bit for bit."""

    def test_random_sparse_systems(self):
        rng = np.random.default_rng(6101)
        for _ in range(200):
            n = int(rng.integers(1, 25))
            a = rng.uniform(-5, 5, (n, n)) * 10.0 ** rng.integers(-3, 4, (n, n))
            a[rng.random((n, n)) < rng.uniform(0.0, 0.7)] = 0.0
            a[rng.random(n) < 0.15] = 0.0  # empty rows
            system = LinearSystem.from_dense(a, rng.uniform(-20, 20, n))
            assert np.array_equal(system.to_dense(), a)
            x = rng.uniform(-50, 50, n)
            # one block per unknown up to one block for the whole system: rows keep three or
            # more off-block entries when the blocks are small and the matrix dense
            blocks = int(rng.integers(1, n + 1))
            assert_matches_loops(system, a, x, partition(n, blocks))

    @pytest.mark.parametrize("m, blocks", [(10, 9), (20, 19)])
    def test_blocks_of_sourced_plate(self, m, blocks):
        problem = HeatProblem(m, sources=[(2, 3, 25.0), (m - 3, m - 2, -15.0)])
        system = assemble_system(problem)
        a = system.to_dense()
        exact = direct_solve(system)
        rng = np.random.default_rng(m)
        for k in (1, 4, 12, 30):
            # iterates closing in on the solution, as after k-1 shrinking sweeps
            x = exact + rng.normal(0.0, 0.8**k, system.n)
            assert_matches_loops(system, a, x, partition(system.n, blocks))
