import itertools
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hypothesis import given, settings
from hypothesis import strategies as st
from qubogs import blocksolve
from qubogs.blocksolve import (
    BlockPartition,
    SolveConfig,
    _rhs,
    _split,
    _wavefront,
    check_convergence_condition,
    classical_gauss_seidel,
    gs_sweep,
    iterate,
    iterate_many,
    partition,
    residual,
    shrink_encoding,
)
from qubogs.encoding import BinaryEncoding, decode, encode
from qubogs.heatgrid import HeatProblem, assemble_system
from qubogs.linear import LinearSystem, whole_number
from qubogs.reference import _singular_values, condition_number, direct_solve, relative_error
from qubogs.samplers import BACKENDS, Sample, SampleSet, SamplerParams, solve_exhaustive, solve_sa_many
from qubogs.trace import IterationRecord, IterationTrace


def block_seed(master: int, k: int, lo: int) -> int:
    """The sampler seed of block solve (k, lo) of a run seeded ``master``, straight from numpy's SeedSequence."""
    return int(np.random.SeedSequence((master, k, lo)).generate_state(1, dtype=np.uint64)[0])


def exact_block_solver(sub, lo, hi):
    return direct_solve(sub)


def loop_gauss_seidel(
    system: LinearSystem,
    tol: float = 1e-10,
    max_iters: int = 1000,
    exact_solution=None,
) -> IterationTrace:
    """Element-wise Gauss-Seidel from x = 0 as a per-entry loop: the oracle for ``classical_gauss_seidel``."""
    if not 0.0 < tol < np.inf:
        raise ValueError("tolerance must be finite and positive")
    max_iters = whole_number("max_iters", max_iters)
    diag = system.to_dense().diagonal()
    if np.any(diag == 0.0):
        raise ValueError("Gauss-Seidel requires nonzero diagonal entries")
    b = system.b
    b_norm = float(np.linalg.norm(b))
    is_absolute = b_norm == 0.0
    denom = 1.0 if is_absolute else b_norm
    starts = np.searchsorted(system.rows, np.arange(system.n + 1)).tolist()  # row i: entries starts[i]:starts[i+1]
    cols, vals = system.cols.tolist(), system.vals.tolist()
    x = np.zeros(system.n)
    records = []
    converged = False
    for k in range(1, max_iters + 1):
        for i in range(system.n):
            s = 0.0
            for e in range(starts[i], starts[i + 1]):
                if cols[e] != i:
                    s += vals[e] * x[cols[e]]
            x[i] = (1.0 / diag[i]) * (b[i] - s)  # the 1x1 block's inverse times its right-hand side
        r = float(np.linalg.norm(system.matvec(x) - b)) / denom
        err = None
        if exact_solution is not None:
            err = relative_error(x, exact_solution)
        records.append(IterationRecord(k=k, x=x.copy(), residual=r, relative_error=err))
        if r <= tol:
            converged = True
            break
    return IterationTrace(records, converged, residual_is_absolute=is_absolute)


def sequential_iterate_many(system: LinearSystem, configs: list[SolveConfig], exact_solution=None, x0=None) -> list[IterationTrace]:
    """Lockstep block Gauss-Seidel one block at a time in block order: the oracle for ``iterate_many``'s wavefront.

    At each block, every unfinished run builds its own QUBO and the SA backend
    samples them all in one call; other backends are called once per run.
    """
    n = system.n
    first = configs[0]
    part = partition(n, first.blocks)
    splits = [(lo, hi, *_split(system, lo, hi)) for lo, hi in part.blocks]
    exact_backend = first.backend == "exact"
    if exact_backend:
        dense = [sub.to_dense() for _, _, sub, _ in splits]
        for a in dense:
            _singular_values(a)  # rank test
        inverses = [np.linalg.inv(a) for a in dense]
    else:
        backend = BACKENDS[first.backend] if isinstance(first.backend, str) else first.backend

    is_absolute = float(np.linalg.norm(system.b)) == 0.0
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    xs = [x.copy() for _ in configs]
    initial = [BinaryEncoding(n, c.bits, *(np.full(n, v, dtype=float) for v in (c.scale, c.offset))) for c in configs]
    encs = list(initial)
    records: list[list[IterationRecord]] = [[] for _ in configs]
    converged = [False] * len(configs)
    for k in range(1, max(c.max_iters for c in configs) + 1):
        active = [i for i, c in enumerate(configs) if not converged[i] and k <= c.max_iters]
        if not active:
            break
        energies: dict[int, list[float]] = {i: [] for i in active}
        clipped: dict[int, list[int]] = {i: [] for i in active}
        for p, (lo, hi, sub, off) in enumerate(splits):
            if exact_backend:
                for i in active:
                    xs[i][lo:hi] = inverses[p] @ _rhs(sub, off, xs[i])
                continue
            block_encs = {i: encs[i].slice(lo, hi) for i in active}
            problems = [encode(replace(sub, b=_rhs(sub, off, xs[i])), block_encs[i]) for i in active]
            params = [replace(configs[i].sampler, seed=block_seed(configs[i].sampler.seed, k, lo)) for i in active]
            pairs = list(zip(problems, params))
            results = solve_sa_many(pairs) if first.backend == "sa" else [backend(*pair) for pair in pairs]
            for i, result in zip(active, results):
                best = result.best_sample
                energies[i].append(best.energy)
                set_bits = np.reshape(best.bits, (hi - lo, first.bits)).sum(axis=1)
                if np.any((set_bits == 0) | (set_bits == first.bits)):  # some variable at an end of its interval
                    clipped[i].append(p)
                xs[i][lo:hi] = decode(best.bits, block_encs[i])
        for i in active:
            config, x = configs[i], xs[i]
            r = residual(system, x)
            err = relative_error(x, exact_solution) if exact_solution is not None else None
            block_energies, halfwidth = (None, None) if exact_backend else (energies[i], float(encs[i].scale.max()))
            records[i].append(IterationRecord(k, x.copy(), r, err, block_energies, clipped[i], halfwidth))
            converged[i] = r <= config.tol
            if not converged[i] and not exact_backend and config.gamma < 1.0:
                encs[i] = shrink_encoding(initial[i], x, config.gamma, k + 1)
    return [IterationTrace(rec, conv, residual_is_absolute=is_absolute) for rec, conv in zip(records, converged)]


def assert_same_traces(got: list[IterationTrace], want: list[IterationTrace]) -> None:
    assert len(got) == len(want)
    for trace, oracle in zip(got, want):
        assert (trace.converged, trace.residual_is_absolute, len(trace)) == (oracle.converged, oracle.residual_is_absolute, len(oracle))
        for a, b in zip(trace.records, oracle.records):
            assert np.array_equal(a.x, b.x)
            fields = ("k", "residual", "relative_error", "block_energies", "clipped_blocks", "halfwidth_max")
            assert [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields]


def sourced_plate() -> LinearSystem:
    """The 81-unknown plate with one source and one sink."""
    return assemble_system(HeatProblem(10, sources=[(2, 3, 25.0), (7, 8, -15.0)]))


def coupled_system(n: int, couplings, seed: int) -> LinearSystem:
    """Strictly diagonally dominant system whose off-diagonal entries sit exactly at the (row, col) ``couplings``."""
    rng = np.random.default_rng(seed)
    a = np.zeros((n, n))
    for i, j in couplings:
        a[i, j] = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0)
    np.fill_diagonal(a, np.abs(a).sum(axis=1) + rng.uniform(0.5, 2.0, n))
    return LinearSystem.from_dense(a, rng.uniform(-10.0, 10.0, n))


# name: (system, blocks, x0, wavefront offsets, period)
WAVEFRONT_CASES = {
    # plate row blocks: each couples to the rows above and below
    "row blocks": lambda: (sourced_plate(), 9, None, list(range(9)), 2),
    "row blocks from x0": lambda: (sourced_plate(), 9, np.linspace(-20.0, 80.0, 81), list(range(9)), 2),
    # three blocks per plate row: o = row + column block
    "27 blocks of 3": lambda: (sourced_plate(), 27, None, [r + j for r in range(9) for j in range(3)], 2),
    # blocks of 9 and 8 unknowns: 8-unknown blocks reach two blocks ahead, and both sizes meet in one step
    "81 in 10 blocks": lambda: (sourced_plate(), 10, None, list(range(10)), 3),
    # a ring of four blocks: the last couples back to the first
    "ring": lambda: (coupled_system(12, [(i, (i + 1) % 12) for i in range(12)] + [((i + 1) % 12, i) for i in range(12)], 4), 4, None, [0, 1, 2, 3], 4),
    # one-sided couplings: each block reads only the one before it, and the first reads the last
    "unsymmetric": lambda: (coupled_system(12, [(i, i - 1) for i in range(1, 12)] + [(1, 10)], 6), 6, None, list(range(6)), 6),
    "block diagonal": lambda: (coupled_system(9, [(0, 1), (1, 2), (4, 3), (5, 4), (7, 8), (8, 6)], 7), 3, None, [0, 0, 0], 1),
    # blocks 0-1-2 a chain and block 3 free: class 0 holds blocks 0, 2 and 3, whose ready ones at its
    # first step (0 and 3) are not a prefix in block order
    "chain and a free block": lambda: (
        coupled_system(12, [(0, 1), (2, 3), (3, 2), (4, 5), (5, 6), (6, 5), (7, 8), (10, 9), (11, 10)], 5), 4, None, [0, 1, 2, 0], 2
    ),
}
# exhaustive runs only where a block QUBO has at most 12 bits
WAVEFRONT_RUNS = [(case, backend) for case in WAVEFRONT_CASES for backend in ("exact", "sa")] + [
    (case, "exhaustive") for case in ("27 blocks of 3", "ring", "unsymmetric", "block diagonal", "chain and a free block")
]


class TestPartition:
    def test_even_split(self):
        assert partition(4, 2).blocks == [(0, 2), (2, 4)]

    def test_remainder_goes_first(self):
        blocks = partition(81, 10).blocks
        sizes = [hi - lo for lo, hi in blocks]
        assert sizes == [9] + [8] * 9
        assert blocks[0] == (0, 9) and blocks[1] == (9, 17)

    def test_single_block(self):
        assert partition(81, 1).blocks == [(0, 81)]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            partition(4, 0)
        with pytest.raises(ValueError):
            partition(4, 5)
        for bad in (2.5, np.nan, np.inf):
            with pytest.raises(ValueError, match="blocks"):
                partition(9, bad)
        assert partition(9, 3.0).blocks == [(0, 3), (3, 6), (6, 9)]

    def test_size_is_a_whole_number(self):
        for bad in (9.5, 0, np.nan, np.inf):
            with pytest.raises(ValueError, match="n must be"):
                partition(bad, 3)
        part = partition(np.float64(9.0), 3)
        assert part.n == 9 and type(part.n) is int and part.blocks == [(0, 3), (3, 6), (6, 9)]

    @pytest.mark.parametrize("n", range(1, 61))
    def test_ranges_are_array_split_boundaries(self, n):
        for blocks in range(1, n + 1):
            want = [(int(a[0]), int(a[-1]) + 1) for a in np.array_split(np.arange(n), blocks)]
            assert partition(n, blocks).blocks == want, (n, blocks)

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            BlockPartition(4, [(0, 2), (3, 4)])  # gap
        with pytest.raises(ValueError):
            BlockPartition(4, [(0, 2), (2, 3)])  # incomplete
        # a bound or the size that is not a whole number
        for n, blocks, message in (
            (4, [(0, 1.5), (1.5, 4)], "whole-number ranges"),
            (4, [(0, float("inf"))], "whole-number ranges"),
            (9.5, [(0, 9)], "n must be an integer >= 1"),
        ):
            with pytest.raises(ValueError, match=message):
                BlockPartition(n, blocks)


class TestGsSweep:
    def test_hand_iterate(self, demo_2x2):
        system, _ = demo_2x2
        x1 = gs_sweep(system, partition(2, 2), [0.0, 0.0], exact_block_solver)
        assert_allclose(x1, [1.5, 0.75])

    def test_diagonal_converges_in_one_sweep(self):
        system = LinearSystem.from_dense(np.diag([2.0, 4.0, 5.0]), [2.0, 8.0, 15.0])
        for blocks in (1, 2, 3):
            x1 = gs_sweep(system, partition(3, blocks), np.zeros(3), exact_block_solver)
            assert_allclose(x1, [1.0, 2.0, 3.0])

    def test_residual_strictly_decreases_on_heat(self, heat_demo):
        _, system, _ = heat_demo
        part = partition(system.n, 9)
        x = np.zeros(system.n)
        last = residual(system, x)
        for _ in range(10):
            x = gs_sweep(system, part, x, exact_block_solver)
            r = residual(system, x)
            assert r < last
            last = r

    def test_partition_system_mismatch(self, demo_2x2):
        system, _ = demo_2x2
        with pytest.raises(ValueError):
            gs_sweep(system, partition(3, 2), np.zeros(3), exact_block_solver)

    def test_singular_block_raises(self):
        from qubogs.reference import SingularMatrixError

        system = LinearSystem.from_dense([[0.0, 1.0], [1.0, 0.0]], [1.0, 1.0])
        with pytest.raises(SingularMatrixError):
            gs_sweep(system, partition(2, 2), np.zeros(2), exact_block_solver)


class TestResidual:
    def test_exact_solution(self, demo_2x2):
        system, exact = demo_2x2
        assert residual(system, exact) <= 1e-12

    def test_identity_zero_guess(self):
        system = LinearSystem.from_dense(np.eye(2), [3.0, 4.0])
        assert residual(system, np.zeros(2)) == 1.0

    def test_hand_value(self, demo_2x2):
        system, _ = demo_2x2
        assert residual(system, [1.5, 0.75]) == pytest.approx(0.1767767, abs=1e-7)

    def test_zero_rhs_reports_absolute(self):
        system = LinearSystem.from_dense(np.eye(2), [0.0, 0.0])
        assert residual(system, [1.0, 0.0]) == 1.0  # absolute, not normalized
        cfg = SolveConfig(blocks=1, tol=1e-12, max_iters=3, backend="exact")
        trace = iterate(system, cfg)
        assert trace.residual_is_absolute


class TestShrink:
    def test_first_iteration_unshrunk(self):
        enc = BinaryEncoding.uniform(2, 3, 2.0, 0.5)
        out = shrink_encoding(enc, np.array([1.0, -1.0]), 0.8, 1)
        assert_allclose(out.scale, 2.0)
        assert_allclose(out.lower(), [1.0 - 2.0, -1.0 - 2.0])
        assert_allclose(2.0 * out.scale - out.offset, [1.0 + 2.0, -1.0 + 2.0])

    def test_hand_interval(self):
        enc = BinaryEncoding.uniform(1, 3, 1.0, 0.0)
        out = shrink_encoding(enc, np.array([0.5]), 0.8, 2)
        assert_allclose(out.lower(), [-0.3])
        assert_allclose(2.0 * out.scale - out.offset, [1.3])

    def test_gamma_one_constant(self):
        enc = BinaryEncoding.uniform(1, 3, 1.5, 0.0)
        for k in (1, 5, 20):
            out = shrink_encoding(enc, np.array([0.0]), 1.0, k)
            assert out.scale[0] == 1.5

    def test_validation(self):
        enc = BinaryEncoding.uniform(1, 3, 1.0, 0.0)
        with pytest.raises(ValueError):
            shrink_encoding(enc, np.zeros(1), 0.0, 1)
        with pytest.raises(ValueError):
            shrink_encoding(enc, np.zeros(1), 0.8, 0)
        for gamma, k in ((0.5, 2.5), (1.0, np.inf), (0.8, np.nan)):
            with pytest.raises(ValueError, match="k must be"):
                shrink_encoding(enc, np.zeros(1), gamma, k)


class TestIterateExact:
    def test_heat_converges(self, heat_demo):
        _, system, exact = heat_demo
        cfg = SolveConfig(blocks=9, tol=1e-10, max_iters=200, backend="exact")
        trace = iterate(system, cfg, exact_solution=exact)
        assert trace.converged
        assert np.all(np.diff(trace.residuals) <= 0)

    @pytest.mark.parametrize("max_iters", [1, 25])
    def test_rank_tests_each_block_once(self, heat_demo, monkeypatch, singular_value_calls, max_iters):
        _, system, _ = heat_demo
        post_init = LinearSystem.__post_init__
        built = []

        def count_builds(self):
            built.append(self.n)
            post_init(self)

        monkeypatch.setattr(LinearSystem, "__post_init__", count_builds)
        trace = iterate(system, SolveConfig(blocks=9, tol=1e-12, max_iters=max_iters, backend="exact"))
        assert len(trace) == max_iters
        assert [shape for _, shape in singular_value_calls] == [(9, 9)] * 9
        # the blocks are split out once per solve, not rebuilt in every sweep
        assert built == [9] * 9

    @pytest.mark.parametrize("max_iters", [1, 25])
    def test_inverts_each_block_size_once(self, monkeypatch, max_iters):
        system = sourced_plate()  # in 10 blocks: one of 9 unknowns, nine of 8
        shapes = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: shapes.append(a.shape) or inv(a))
        trace = iterate(system, SolveConfig(blocks=10, tol=1e-300, max_iters=max_iters, backend="exact"))
        assert len(trace) == max_iters
        assert sorted(shapes) == [(1, 9, 9), (9, 8, 8)]
        # the QUBO backends invert nothing
        shapes.clear()
        qubo = SolveConfig(blocks=10, bits=1, tol=1e-300, max_iters=max_iters, sampler=SamplerParams(num_reads=2, sweeps=5))
        for backend in ("sa", "exhaustive"):
            iterate(system, replace(qubo, backend=backend))
        assert shapes == []

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 30), st.floats(0.05, 1.0), st.floats(-3.0, 1.0), st.integers(0, 2**32 - 1))
    def test_block_solve_within_kappa_n_eps_of_lu(self, n, density, log_margin, seed):
        # one block and one sweep is one block solve: the inverse times b, which lies within
        # O(kappa(A) n eps) relative of LU's solve; the factor 2 covers n = 1, where (1/a) * b
        # and b / a round three times in all
        rng = np.random.default_rng(seed)
        a = np.where(rng.random((n, n)) < density, rng.uniform(-2.0, 2.0, (n, n)), 0.0)
        np.fill_diagonal(a, 0.0)
        np.fill_diagonal(a, rng.choice([-1.0, 1.0], n) * (np.abs(a).sum(axis=1) + 10.0**log_margin))
        b = rng.uniform(-10.0, 10.0, n)
        x = iterate(LinearSystem.from_dense(a, b), SolveConfig(blocks=1, tol=1e-300, max_iters=1)).records[0].x
        lu = np.linalg.solve(a, b)
        assert np.linalg.norm(x - lu) <= 2.0 * np.linalg.cond(a) * n * np.finfo(float).eps * np.linalg.norm(lu)

    @pytest.mark.parametrize("blocks", [9, 10])
    def test_matches_chained_gs_sweep(self, blocks):
        problem = HeatProblem(10, sources=[(2, 3, 25.0), (7, 8, -15.0)])
        system = assemble_system(problem)
        part = partition(system.n, blocks)
        trace = iterate(system, SolveConfig(blocks=blocks, tol=1e-300, max_iters=40, backend="exact"))
        assert len(trace) == 40
        x = np.zeros(system.n)
        for rec in trace.records:
            x = gs_sweep(system, part, x, lambda sub, lo, hi: np.linalg.inv(sub.to_dense()) @ sub.b)
            assert np.array_equal(rec.x, x)

    def test_singular_block_raises(self):
        from qubogs.reference import SingularMatrixError

        system = LinearSystem.from_dense([[0.0, 1.0], [1.0, 0.0]], [1.0, 1.0])
        with pytest.raises(SingularMatrixError):
            iterate(system, SolveConfig(blocks=2, backend="exact"))

    def test_large_tolerance_stops_immediately(self, demo_2x2):
        system, _ = demo_2x2
        trace = iterate(system, SolveConfig(blocks=2, tol=10.0, max_iters=50, backend="exact"))
        assert trace.converged and len(trace) == 1

    def test_matches_classical_gs_when_blocks_are_points(self):
        # (system, exact solution) pairs: sourced plates, a zero right-hand side, and
        # random strictly diagonally dominant systems, which Gauss-Seidel solves
        rng = np.random.default_rng(12)
        cases = []
        for m in range(2, 12):
            system = assemble_system(HeatProblem(m, sources=[(m // 2, 1, 25.0)]))
            cases.append((system, direct_solve(system)))
        cases.append((assemble_system(HeatProblem(5, boundary="zero")), None))
        for _ in range(60):
            n = int(rng.integers(1, 12))
            a = np.where(rng.random((n, n)) < 0.4, rng.uniform(-2.0, 2.0, (n, n)), 0.0)
            np.fill_diagonal(a, 0.0)
            signs = rng.choice([-1.0, 1.0], n)
            np.fill_diagonal(a, signs * (np.abs(a).sum(axis=1) + rng.uniform(0.1, 2.0, n)))
            system = LinearSystem.from_dense(a, rng.uniform(-10.0, 10.0, n))
            cases.append((system, direct_solve(system)))
        for system, exact in cases:
            for tol, max_iters in ((1e-10, 1000), (1e-3, 4)):
                block_trace = classical_gauss_seidel(system, tol, max_iters, exact)
                loop_trace = loop_gauss_seidel(system, tol, max_iters, exact)
                assert (block_trace.converged, block_trace.residual_is_absolute) == (
                    loop_trace.converged, loop_trace.residual_is_absolute
                )
                assert len(block_trace) == len(loop_trace)
                for a, b in zip(block_trace.records, loop_trace.records):
                    assert (a.k, a.residual, a.relative_error) == (b.k, b.residual, b.relative_error)
                    assert np.array_equal(a.x, b.x)

    def test_error_residual_bound(self, heat_demo):
        _, system, exact = heat_demo
        kappa = condition_number(system).kappa
        cfg = SolveConfig(blocks=9, tol=1e-10, max_iters=60, backend="exact")
        trace = iterate(system, cfg, exact_solution=exact)
        for rec in trace.records:
            assert rec.relative_error <= kappa * rec.residual * (1 + 1e-6)

    def test_invalid_blocks(self, demo_2x2):
        system, _ = demo_2x2
        with pytest.raises(ValueError):
            iterate(system, SolveConfig(blocks=3, backend="exact"))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolveConfig(gamma=0.0)
        with pytest.raises(ValueError):
            SolveConfig(gamma=1.2)
        with pytest.raises(ValueError):
            SolveConfig(tol=0.0)
        for tol in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                SolveConfig(tol=tol)  # a NaN tolerance would never be met
        with pytest.raises(ValueError):
            SolveConfig(backend="annealer-9000")
        # counts must be whole numbers >= 1, checked before any solve starts
        for key in ("blocks", "bits", "max_iters"):
            for bad in (2.5, 0, float("nan"), float("inf")):
                with pytest.raises(ValueError, match=key):
                    SolveConfig(**{key: bad})
        config = SolveConfig(blocks=3.0, bits=np.int64(2), max_iters=4.0)
        assert (config.blocks, config.bits, config.max_iters) == (3, 2, 4)
        assert all(type(v) is int for v in (config.blocks, config.bits, config.max_iters))

    @pytest.mark.parametrize("backend", ["exact", "sa"])
    @pytest.mark.parametrize(
        "bad",
        [{"scale": 0.0}, {"scale": -1.0}, {"scale": np.inf}, {"scale": np.nan}, {"offset": np.inf}, {"offset": np.nan}],
        ids=["scale-zero", "scale-negative", "scale-inf", "scale-nan", "offset-inf", "offset-nan"],
    )
    def test_encoding_settings_checked_at_construction(self, backend, bad):
        # checked for every backend, the exact one included, which never encodes a block
        with pytest.raises(ValueError, match="scale must be positive and finite, and its offset finite"):
            SolveConfig(backend=backend, **bad)

    def test_encoding_settings_are_floats(self):
        config = SolveConfig(scale=2, offset=np.float64(-1.5))
        assert (config.scale, config.offset) == (2.0, -1.5)
        assert type(config.scale) is float and type(config.offset) is float
        config = SolveConfig(gamma=1, tol=np.float32(1e-3))
        assert type(config.gamma) is float and type(config.tol) is float
        assert type(HeatProblem(5, length=2).length) is float

    def test_exact_backend_builds_no_encoding(self, demo_2x2, monkeypatch):
        system, _ = demo_2x2
        built = []

        class Counting(BinaryEncoding):
            def __post_init__(self):
                built.append((self.n, self.bits))
                super().__post_init__()

        # every window iterate_many builds, directly, through BinaryEncoding.uniform or through shrink_encoding
        monkeypatch.setattr(blocksolve, "BinaryEncoding", Counting)
        iterate(system, SolveConfig(blocks=2, tol=1e-300, max_iters=3, backend="exact"))
        assert built == []
        # the count does see a QUBO backend's windows: one per run and block size (both blocks have one
        # unknown here), plus one per moved window, so for each block from k = 2 on when gamma < 1
        iterate(system, SolveConfig(blocks=2, tol=1e-300, max_iters=3, backend="exhaustive"))
        assert built == [(1, 3)]
        built.clear()
        iterate(system, SolveConfig(blocks=2, tol=1e-300, max_iters=3, gamma=0.5, backend="exhaustive"))
        assert built == [(1, 3)] * 5


class TestIterateInputs:
    """A bad ``x0`` or ``exact_solution`` raises ValueError naming it before the first block solve."""

    NAN_AT_4 = np.where(np.arange(9) == 4, np.nan, 1.0)
    CASES = {
        "nonfinite-x0-exact": ("exact", {"x0": NAN_AT_4}, "x0"),
        "nonfinite-x0-sa": ("sa", {"x0": np.where(np.arange(9) == 4, np.inf, 1.0)}, "x0"),
        "short-zero-exact-solution": ("exact", {"exact_solution": np.zeros(5)}, "exact_solution"),
        "short-exact-solution": ("exact", {"exact_solution": np.ones(5)}, "exact_solution"),
        "nonfinite-exact-solution": ("exact", {"exact_solution": NAN_AT_4}, "exact_solution"),
        "zero-exact-solution": ("exact", {"exact_solution": np.zeros(9)}, "exact_solution"),
        "tiny-exact-solution": ("exact", {"exact_solution": np.full(9, 1e-200)}, "exact_solution"),  # its norm underflows
    }

    @pytest.mark.parametrize("case", CASES)
    def test_rejected_before_any_solve(self, case, monkeypatch):
        backend, kwargs, name = self.CASES[case]
        system = assemble_system(HeatProblem(4, sources=[(2, 2, 25.0)]))  # 9 unknowns
        config = SolveConfig(blocks=3, bits=2, max_iters=5, backend=backend, sampler=SamplerParams(num_reads=2, sweeps=5))
        solves = []

        def spy(solve):
            return lambda *args: solves.append(args) or solve(*args)

        # every way a block solve reaches its backend: the inverse stack (exact), batched SA, or a named sampler
        monkeypatch.setattr(np.linalg, "inv", spy(np.linalg.inv))
        monkeypatch.setattr(blocksolve, "solve_sa_many", spy(solve_sa_many))
        monkeypatch.setitem(BACKENDS, "exhaustive", spy(BACKENDS["exhaustive"]))
        with pytest.raises(ValueError, match=name):
            iterate(system, config, **kwargs)
        assert solves == []
        iterate(system, config)  # the spies do see a valid run's solves
        assert solves


class TestIterateMany:
    @pytest.mark.parametrize("backend", ["exact", "exhaustive", "sa"])
    def test_traces_equal_separate_runs(self, backend):
        # the runs differ in gamma, tolerance, iteration cap and seed, so they leave the batch at different sweeps
        system = assemble_system(HeatProblem(5, sources=[(2, 3, 25.0)]))
        exact = direct_solve(system)
        base = SolveConfig(blocks=8, bits=2, backend=backend, sampler=SamplerParams(num_reads=4, sweeps=20))
        settings = [(1.0, 1e-3, 25, 1), (0.8, 1e-6, 25, 2), (0.8, 1e-3, 7, 3)]
        configs = [
            replace(base, gamma=g, tol=tol, max_iters=m, sampler=replace(base.sampler, seed=s)) for g, tol, m, s in settings
        ]
        together = iterate_many(system, configs, exact_solution=exact)
        assert len({len(trace) for trace in together}) > 1
        for config, trace in zip(configs, together):
            alone = iterate(system, config, exact_solution=exact)
            assert (trace.converged, len(trace)) == (alone.converged, len(alone))
            for a, b in zip(trace.records, alone.records):
                assert np.array_equal(a.x, b.x)
                fields = ("k", "residual", "relative_error", "block_energies", "clipped_blocks", "halfwidth_max")
                assert [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields]

    def test_configs_must_share_block_settings(self, demo_2x2):
        system, _ = demo_2x2
        base = SolveConfig(blocks=2, backend="exact")
        others = [replace(base, blocks=1), replace(base, bits=4), replace(base, backend="sa"), replace(base, sampler=SamplerParams(sweeps=7))]
        for other in others:
            with pytest.raises(ValueError, match="sharing"):
                iterate_many(system, [base, other])
        with pytest.raises(ValueError, match="at least one"):
            iterate_many(system, [])


class TestWavefront:
    @pytest.mark.parametrize("case", list(WAVEFRONT_CASES))
    def test_schedule(self, case):
        system, blocks, _, offsets, period = WAVEFRONT_CASES[case]()
        part = partition(system.n, blocks)
        assert _wavefront([(lo, hi, *_split(system, lo, hi)) for lo, hi in part.blocks]) == (offsets, period)

    @pytest.mark.parametrize("case, backend", WAVEFRONT_RUNS)
    def test_matches_sequential_sweeps(self, case, backend):
        # the runs differ in gamma, tolerance, iteration cap and seed, so they leave at different k
        system, blocks, x0, _, _ = WAVEFRONT_CASES[case]()
        exact = direct_solve(system)
        base = SolveConfig(blocks=blocks, bits=2, scale=60.0, offset=20.0, backend=backend, sampler=SamplerParams(num_reads=4, sweeps=20))
        run_settings = [(1.0, 1e-2, 14, 1), (0.8, 1e-6, 14, 2), (0.8, 1e-6, 4, 3)]
        configs = [
            replace(base, gamma=g, tol=tol, max_iters=m, sampler=replace(base.sampler, seed=s)) for g, tol, m, s in run_settings
        ]
        traces = iterate_many(system, configs, exact_solution=exact, x0=x0)
        if (case, backend) != ("block diagonal", "exact"):  # which every run solves in one sweep
            assert len({len(trace) for trace in traces}) > 1
        assert_same_traces(traces, sequential_iterate_many(system, configs, exact_solution=exact, x0=x0))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 16), st.floats(0.05, 0.6), st.integers(0, 2**32 - 1), st.data())
    def test_exact_matches_sequential_sweeps_on_random_systems(self, n, density, seed, data):
        # sparse, strictly diagonally dominant, generally unsymmetric patterns, any block count
        blocks = data.draw(st.integers(1, n), label="blocks")
        rng = np.random.default_rng(seed)
        a = np.where(rng.random((n, n)) < density, rng.uniform(-2.0, 2.0, (n, n)), 0.0)
        np.fill_diagonal(a, 0.0)
        np.fill_diagonal(a, rng.choice([-1.0, 1.0], n) * (np.abs(a).sum(axis=1) + rng.uniform(0.1, 2.0, n)))
        system = LinearSystem.from_dense(a, rng.uniform(-10.0, 10.0, n))
        exact = direct_solve(system)
        configs = [SolveConfig(blocks=blocks, tol=tol, max_iters=m, backend="exact") for tol, m in ((1e-8, 40), (1e-3, 40), (1e-8, 3))]
        assert_same_traces(iterate_many(system, configs, exact), sequential_iterate_many(system, configs, exact))

    @pytest.mark.parametrize("tols", [(1e-6,), (1e-2, 1e-6, 1e-300)])
    def test_one_matvec_per_record(self, monkeypatch, tols):
        # perfbench's tracer times the residuals by wrapping LinearSystem.matvec by name, so each
        # record's residual must come from exactly one call of it, for one run and for a lockstep group
        calls = []
        matvec = LinearSystem.matvec

        def counting(self, x):
            calls.append(len(x))
            return matvec(self, x)

        monkeypatch.setattr(LinearSystem, "matvec", counting)
        system = sourced_plate()
        traces = iterate_many(system, [SolveConfig(blocks=27, tol=tol, max_iters=40, backend="exact") for tol in tols])
        assert calls == [system.n] * sum(len(trace) for trace in traces)

    @pytest.mark.parametrize("backend", ["exact", "exhaustive"])
    @pytest.mark.parametrize("case", ["zero rhs", "with exact", "without exact"])
    def test_record_norms_match_residual_and_relative_error(self, backend, case):
        # each record's residual is residual()'s (absolute when b = 0) and its error relative_error()'s, bit for bit
        system = sourced_plate()
        exact = direct_solve(system) if case == "with exact" else None
        if case == "zero rhs":
            system = replace(system, b=np.zeros(system.n))
        x0 = np.random.default_rng(3).uniform(-5.0, 5.0, system.n)
        configs = [SolveConfig(blocks=27, bits=2, offset=0.3, tol=tol, max_iters=m, backend=backend) for tol, m in ((1e-2, 30), (1e-12, 9))]
        traces = iterate_many(system, configs, exact_solution=exact, x0=x0)
        assert all(trace.residual_is_absolute == (case == "zero rhs") for trace in traces)
        records = [rec for trace in traces for rec in trace.records]
        assert len(records) > 9
        for rec in records:
            assert rec.residual == residual(system, rec.x)
            assert rec.relative_error == (None if exact is None else relative_error(rec.x, exact))

    @pytest.mark.parametrize("backend", ["exact", "exhaustive"])
    def test_records_own_their_iterates(self, backend):
        # iterates in flight share one ring, so every record must hold a copy of its slot
        system = sourced_plate()
        configs = [SolveConfig(blocks=27, bits=2, tol=tol, max_iters=12, backend=backend) for tol in (1e-2, 1e-12)]
        records = [rec for trace in iterate_many(system, configs) for rec in trace.records]
        assert len(records) > 12
        for a, b in itertools.combinations(records, 2):
            assert not np.shares_memory(a.x, b.x)

    def test_callable_backend_contract(self):
        # each (seed, k, block) solve is asked for at most once, never past a run's cap, and at most
        # max o // c iterations are started past a run's last one
        system = sourced_plate()
        seen = []

        def recording(problem, params):
            seen.append(params.seed)
            return solve_exhaustive(problem)

        base = SolveConfig(blocks=27, bits=3, scale=50.0, gamma=0.8, backend=recording)
        run_settings = [(1e-2, 60, 1), (1e-9, 7, 2), (3e-2, 60, 3)]
        configs = [replace(base, tol=tol, max_iters=m, sampler=SamplerParams(seed=s)) for tol, m, s in run_settings]
        traces = iterate_many(system, configs)
        part = partition(system.n, 27)
        offsets, period = _wavefront([(lo, hi, *_split(system, lo, hi)) for lo, hi in part.blocks])
        assert period == 2 and max(offsets) // period == 5
        solve_of = {
            block_seed(c.sampler.seed, k, lo): (run, k, lo)
            for run, c in enumerate(configs)
            for k in range(1, c.max_iters + 10)
            for lo, _ in part.blocks
        }
        solves = [solve_of[seed] for seed in seen]
        assert len(set(solves)) == len(solves)
        for run, (config, trace) in enumerate(zip(configs, traces)):
            started = {(k, lo) for r, k, lo in solves if r == run}
            every_block = {(k, lo) for k in range(1, len(trace) + 1) for lo, _ in part.blocks}
            assert every_block <= started
            last_started = max(k for k, _ in started)
            assert last_started <= config.max_iters
            assert last_started - len(trace) <= max(offsets) // period
        assert [traces[0].converged, traces[1].converged, traces[2].converged] == [True, False, True]
        assert len(solves) > sum(len(trace) for trace in traces) * 27  # the converged runs left speculative solves behind

    def test_block_seeds_of_every_width(self):
        # run seeds of one to four words share the calls; with tol out of reach every run makes
        # exactly its max_iters x blocks solves, each seeded SeedSequence((seed, k, lo))'s first word
        system = assemble_system(HeatProblem(4))
        seen = []

        def recording(problem, params):
            seen.append(params.seed)
            return solve_exhaustive(problem)

        seeds = (0, 2**32 - 1, 2**64 + 7, 2**127 + 11)
        base = SolveConfig(blocks=3, bits=2, tol=1e-300, max_iters=4, backend=recording)
        iterate_many(system, [replace(base, sampler=SamplerParams(seed=seed)) for seed in seeds])
        want = [block_seed(seed, k, lo) for seed in seeds for k in range(1, 5) for lo, _ in partition(system.n, 3).blocks]
        assert sorted(seen) == sorted(want), f"numpy {np.__version__}"


class TestContractionOperators:
    def test_per_block_error_maps(self):
        # with exact block solves the two-block error recursions are linear:
        # first-block errors contract by A11^-1 A12 A22^-1 A21, second-block
        # errors by A22^-1 A21 A11^-1 A12 (verified here against brute force)
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.uniform(-1, 1, (4, 4)) + 5 * np.eye(4)
            system = LinearSystem.from_dense(a, rng.uniform(-1, 1, 4))
            exact = direct_solve(system)
            first_map = np.linalg.solve(a[:2, :2], a[:2, 2:]) @ np.linalg.solve(a[2:, 2:], a[2:, :2])
            second_map = np.linalg.solve(a[2:, 2:], a[2:, :2]) @ np.linalg.solve(a[:2, :2], a[:2, 2:])
            part = partition(4, 2)
            x = np.zeros(4)
            for sweep in range(6):
                x_next = gs_sweep(system, part, x, exact_block_solver)
                if sweep >= 1:
                    e1_prev, e2_prev = x[:2] - exact[:2], x[2:] - exact[2:]
                    assert_allclose(x_next[:2] - exact[:2], first_map @ e1_prev, atol=1e-8)
                    assert_allclose(x_next[2:] - exact[2:], second_map @ e2_prev, atol=1e-8)
                x = x_next


class TestConvergenceCondition:
    def test_block_diagonal(self):
        a = np.diag([2.0, 3.0, 4.0, 5.0])
        report = check_convergence_condition(LinearSystem.from_dense(a, np.ones(4)), partition(4, 2))
        assert report.norm_first_block == 0.0
        assert report.norm_second_block == 0.0
        assert report.sufficient

    def test_heat_half_split(self, heat_demo):
        _, system, _ = heat_demo
        report = check_convergence_condition(system, partition(system.n, 2))
        assert report.sufficient
        assert report.norm_first_block < 1 and report.norm_second_block < 1

    def test_strong_coupling_fails(self):
        system = LinearSystem.from_dense([[1.0, 2.0], [2.0, 1.0]], [1.0, 1.0])
        report = check_convergence_condition(system, partition(2, 2))
        assert report.norm_first_block == pytest.approx(4.0, rel=1e-9)
        assert not report.sufficient

    def test_requires_two_blocks(self, demo_2x2):
        system, _ = demo_2x2
        with pytest.raises(ValueError):
            check_convergence_condition(system, partition(2, 1))

    def test_partition_system_mismatch(self):
        system = assemble_system(HeatProblem(10))
        with pytest.raises(ValueError, match="partition does not match"):
            check_convergence_condition(system, partition(4, 2))


class TestIterateQubo:
    def test_plateau_above_quantization_floor(self):
        # gamma = 1 pins the grid, so no iterate can beat the best representable
        # vector; the classical path keeps improving far below that floor
        system = assemble_system(HeatProblem(5))
        exact = direct_solve(system)
        enc = BinaryEncoding.uniform(system.n, 3, 50.0, 0.0)
        step = enc.resolution()
        quantized = enc.lower() + np.clip(np.round((exact - enc.lower()) / step), 0, 7) * step
        floor = np.linalg.norm(quantized - exact) / np.linalg.norm(exact)

        cfg = SolveConfig(
            blocks=8, bits=3, scale=50.0, offset=0.0, gamma=1.0, tol=1e-15, max_iters=14,
            backend="sa", sampler=SamplerParams(num_reads=20, sweeps=80, seed=90210),
        )
        trace = iterate(system, cfg, exact_solution=exact)
        assert np.all(trace.errors >= floor - 1e-12)

        classical = classical_gauss_seidel(system, tol=1e-14, max_iters=120, exact_solution=exact)
        assert classical.errors[-1] < floor / 10

    def test_exhaustive_blocks_freeze(self):
        # with a pinned interval the iteration reaches a fixed point on the
        # coarse grid; the error can wobble during the transient (block
        # residual minimization is not globally error-monotone) but never
        # beats the best representable vector
        system = assemble_system(HeatProblem(5))
        exact = direct_solve(system)
        enc = BinaryEncoding.uniform(system.n, 3, 50.0, 0.0)
        step = enc.resolution()
        quantized = enc.lower() + np.clip(np.round((exact - enc.lower()) / step), 0, 7) * step
        floor = np.linalg.norm(quantized - exact) / np.linalg.norm(exact)
        cfg = SolveConfig(blocks=8, bits=3, scale=50.0, offset=0.0, gamma=1.0, tol=1e-15, max_iters=16, backend="exhaustive")
        trace = iterate(system, cfg, exact_solution=exact)
        errs = trace.errors
        assert errs[-1] == errs[8]  # frozen on the coarse grid
        assert np.all(errs >= floor - 1e-12)

    def test_shrink_recovers_precision(self, demo_2x2):
        # the floor after k shrinks is about c * gamma^(k-1) / 2^(R-1); by 30
        # iterations that is ~2e-4, by 60 it is far below 1e-6
        system, exact = demo_2x2
        cfg = SolveConfig(blocks=2, bits=3, scale=1.0, offset=0.0, gamma=0.8, tol=1e-300, max_iters=60, backend="exhaustive")
        trace = iterate(system, cfg, exact_solution=exact)
        assert trace.errors[29] < 1e-3
        assert trace.errors[59] < 1e-6

    def test_halfwidths_decay_geometrically(self, demo_2x2):
        system, _ = demo_2x2
        cfg = SolveConfig(blocks=2, bits=3, scale=1.0, offset=0.0, gamma=0.5, tol=1e-300, max_iters=5, backend="exhaustive")
        trace = iterate(system, cfg)
        widths = [rec.halfwidth_max for rec in trace.records]
        assert_allclose(widths, [1.0, 0.5, 0.25, 0.125, 0.0625])

    def test_gamma_one_keeps_interval(self, demo_2x2):
        system, _ = demo_2x2
        cfg = SolveConfig(blocks=2, bits=3, scale=1.0, offset=0.0, gamma=1.0, tol=1e-300, max_iters=4, backend="exhaustive")
        trace = iterate(system, cfg)
        assert all(rec.halfwidth_max == 1.0 for rec in trace.records)

    def test_fixed_point_stays_at_quantization_level(self, demo_2x2):
        # starting from the exact solution, iterates never drift beyond the
        # per-step quantization error bound ||A|| * sqrt(n) * step/2 / ||b||
        system, exact = demo_2x2
        cfg = SolveConfig(blocks=2, bits=3, scale=1.0, offset=-0.05, gamma=1.0, tol=1e-300, max_iters=10, backend="exhaustive")
        trace = iterate(system, cfg, exact_solution=exact, x0=exact)
        step = 2.0 * 1.0 / 2**3
        bound = 3.0 * np.sqrt(2.0) * (step / 2) / np.linalg.norm(system.b)  # ||A||_2 = 3 here
        assert np.all(trace.residuals <= bound)

    def test_clipped_block_flagged(self):
        # solution x = 5 sits far outside [0, 2): the best sample saturates
        system = LinearSystem.from_dense([[1.0]], [5.0])
        cfg = SolveConfig(blocks=1, bits=3, scale=1.0, offset=0.0, gamma=1.0, tol=1e-300, max_iters=1, backend="exhaustive")
        trace = iterate(system, cfg)
        assert trace.records[0].clipped_blocks == [0]
        assert trace.final_x[0] == pytest.approx(2.0 * (1 - 2.0**-3))

    def test_lockstep_runs_report_their_own_clipped_blocks(self):
        # two uncoupled 3-unknown blocks; x_0 = 5.2 lies outside the narrow window [0, 2) and inside
        # the wide one [0, 8), and every other unknown lies well inside both
        block = np.array([[4.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 4.0]])
        a = np.kron(np.eye(2), block)
        x_star = np.array([5.2, 1.1, 0.9, 0.9, 1.1, 1.2])
        system = LinearSystem.from_dense(a, a @ x_star)
        narrow = SolveConfig(blocks=2, bits=3, scale=1.0, gamma=1.0, tol=1e-300, max_iters=3, backend="exhaustive")
        traces = iterate_many(system, [narrow, replace(narrow, scale=4.0)])
        assert [len(trace) for trace in traces] == [3, 3]
        assert [rec.clipped_blocks for rec in traces[0].records] == [[0]] * 3
        assert [rec.clipped_blocks for rec in traces[1].records] == [[]] * 3
        assert [rec.halfwidth_max for rec in traces[0].records + traces[1].records] == [1.0] * 3 + [4.0] * 3
        assert traces[1].final_x.tolist() == [5.0, 1.0, 1.0, 1.0, 1.0, 1.0]

        # a backend whose sample is one bit short fails with decode's message, not a reshape error
        def short(problem, params):
            best = solve_exhaustive(problem).best_sample
            return SampleSet([Sample(best.bits[:-1], best.energy)])

        with pytest.raises(ValueError, match="bitstring must have length"):
            iterate_many(system, [replace(narrow, backend=short)])

    def test_custom_backend_callable(self, demo_2x2):
        system, exact = demo_2x2
        calls = []

        def backend(problem, params):
            calls.append(problem.size)
            return solve_exhaustive(problem)

        cfg = SolveConfig(blocks=2, bits=4, scale=1.0, offset=0.0, gamma=0.8, tol=1e-6, max_iters=40, backend=backend)
        trace = iterate(system, cfg, exact_solution=exact)
        assert calls and all(size == 4 for size in calls)
        assert trace.errors[-1] < 1e-3

    def test_block_energies_recorded(self, demo_2x2):
        system, _ = demo_2x2
        cfg = SolveConfig(blocks=2, bits=3, scale=1.0, offset=0.0, gamma=1.0, tol=1e-300, max_iters=2, backend="exhaustive")
        trace = iterate(system, cfg)
        for rec in trace.records:
            assert rec.block_energies is not None and len(rec.block_energies) == 2

    def test_iterate_fully_deterministic(self, heat_demo):
        _, system, exact = heat_demo
        cfg = SolveConfig(
            blocks=9, bits=3, scale=50.0, offset=0.0, gamma=0.8, tol=1e-3, max_iters=6,
            backend="sa", sampler=SamplerParams(num_reads=5, sweeps=30, seed=77),
        )
        first = iterate(system, cfg, exact_solution=exact)
        second = iterate(system, cfg, exact_solution=exact)
        assert np.array_equal(first.residuals, second.residuals)
        assert np.array_equal(first.final_x, second.final_x)
        assert [r.block_energies for r in first.records] == [r.block_energies for r in second.records]
