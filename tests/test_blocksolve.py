import numpy as np
import pytest
from numpy.testing import assert_allclose

from qubogs.blocksolve import (
    BlockPartition,
    SolveConfig,
    check_convergence_condition,
    gs_sweep,
    iterate,
    partition,
    residual,
    shrink_encoding,
)
from qubogs.encoding import BinaryEncoding
from qubogs.heatgrid import HeatProblem, assemble_system
from qubogs.linear import LinearSystem
from qubogs.reference import classical_gauss_seidel, condition_number, direct_solve
from qubogs.samplers import SamplerParams, solve_exhaustive


def exact_block_solver(sub, lo, hi):
    return direct_solve(sub)


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

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            BlockPartition(4, [(0, 2), (3, 4)])  # gap
        with pytest.raises(ValueError):
            BlockPartition(4, [(0, 2), (2, 3)])  # incomplete


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
        assert_allclose(out.upper(), [1.0 + 2.0, -1.0 + 2.0])

    def test_hand_interval(self):
        enc = BinaryEncoding.uniform(1, 3, 1.0, 0.0)
        out = shrink_encoding(enc, np.array([0.5]), 0.8, 2)
        assert_allclose(out.lower(), [-0.3])
        assert_allclose(out.upper(), [1.3])

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


class TestIterateExact:
    def test_heat_converges(self, heat_demo):
        _, system, exact = heat_demo
        cfg = SolveConfig(blocks=9, tol=1e-10, max_iters=200, backend="exact")
        trace = iterate(system, cfg, exact_solution=exact)
        assert trace.converged
        assert np.all(np.diff(trace.residuals) <= 0)

    @pytest.mark.parametrize("max_iters", [1, 25])
    def test_rank_tests_each_block_once(self, heat_demo, monkeypatch, max_iters):
        _, system, _ = heat_demo
        svd = np.linalg.svd
        post_init = LinearSystem.__post_init__
        calls = []
        built = []

        def spy(a, *args, **kwargs):
            calls.append(a.shape)
            return svd(a, *args, **kwargs)

        def count_builds(self):
            built.append(self.n)
            post_init(self)

        monkeypatch.setattr(np.linalg, "svd", spy)
        monkeypatch.setattr(LinearSystem, "__post_init__", count_builds)
        trace = iterate(system, SolveConfig(blocks=9, tol=1e-12, max_iters=max_iters, backend="exact"))
        assert len(trace) == max_iters
        assert calls == [(9, 9)] * 9
        # the blocks are split out once per solve, not rebuilt in every sweep
        assert built == [9] * 9

    @pytest.mark.parametrize("blocks", [9, 10])
    def test_matches_chained_gs_sweep(self, blocks):
        problem = HeatProblem(10, sources=[(2, 3, 25.0), (7, 8, -15.0)])
        system = assemble_system(problem)
        part = partition(system.n, blocks)
        trace = iterate(system, SolveConfig(blocks=blocks, tol=1e-300, max_iters=40, backend="exact"))
        assert len(trace) == 40
        x = np.zeros(system.n)
        for rec in trace.records:
            x = gs_sweep(system, part, x, lambda sub, lo, hi: np.linalg.solve(sub.to_dense(), sub.b))
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
        system = assemble_system(HeatProblem(6))
        exact = direct_solve(system)
        cfg = SolveConfig(blocks=system.n, tol=1e-8, max_iters=150, backend="exact")
        block_trace = iterate(system, cfg, exact_solution=exact)
        point_trace = classical_gauss_seidel(system, tol=1e-8, max_iters=150, exact_solution=exact)
        assert len(block_trace) == len(point_trace)
        for a, b in zip(block_trace.records, point_trace.records):
            assert a.residual == b.residual
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
