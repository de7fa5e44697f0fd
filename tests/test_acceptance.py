"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import time

import numpy as np
import pytest

from conftest import SUITE_SEED
from corpus_problems import small_corpus
from qubogs import cli
from qubogs.blocksolve import (
    SolveConfig,
    check_convergence_condition,
    classical_gauss_seidel,
    gs_sweep,
    iterate,
    iterate_many,
    partition,
)
from qubogs.encoding import BinaryEncoding, encode, estimate_resources
from qubogs.heatgrid import HeatProblem, assemble_system
from qubogs.linear import LinearSystem
from qubogs.reference import condition_number, direct_solve
from qubogs.samplers import SamplerParams, energy, solve_exhaustive, solve_sa

PLATEAU_BLOCKS = 27  # 3-variable blocks keep exhaustive block minima enumerable (9 bits)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def all_bitstrings(size: int) -> np.ndarray:
    states = np.arange(1 << size)
    shifts = size - 1 - np.arange(size)
    return ((states[:, None] >> shifts) & 1).astype(float)


def quantized_best(exact: np.ndarray, enc: BinaryEncoding) -> np.ndarray:
    step = enc.resolution()
    levels = np.clip(np.round((exact - enc.lower()) / step), 0, 2**enc.bits - 1)
    return enc.lower() + levels * step


@pytest.fixture(scope="module")
def kappa(heat_demo):
    _, system, _ = heat_demo
    return condition_number(system).kappa


@pytest.fixture(scope="module")
def blockgs_run(heat_demo):
    _, system, exact = heat_demo
    cfg = SolveConfig(blocks=9, tol=1e-10, max_iters=200, backend="exact")
    start = time.perf_counter()
    trace = iterate(system, cfg, exact_solution=exact)
    return trace, time.perf_counter() - start


@pytest.fixture(scope="module")
def gamma1_run(heat_demo):
    _, system, exact = heat_demo
    cfg = SolveConfig(
        blocks=PLATEAU_BLOCKS, bits=3, scale=50.0, offset=0.0, gamma=1.0,
        tol=1e-15, max_iters=30, backend="exhaustive",
    )
    return iterate(system, cfg, exact_solution=exact)


@pytest.fixture(scope="module")
def gamma08_run(heat_demo):
    _, system, exact = heat_demo
    cfg = SolveConfig(
        blocks=PLATEAU_BLOCKS, bits=3, scale=50.0, offset=0.0, gamma=0.8,
        tol=1e-15, max_iters=30, backend="exhaustive",
    )
    return iterate(system, cfg, exact_solution=exact)


@pytest.fixture(scope="module")
def sa_shrink_runs(heat_demo):
    _, system, exact = heat_demo
    configs = [
        SolveConfig(
            blocks=PLATEAU_BLOCKS, bits=3, scale=50.0, offset=0.0, gamma=0.8,
            tol=1e-15, max_iters=30, backend="sa",
            sampler=SamplerParams(num_reads=10, sweeps=40, seed=seed),
        )
        for seed in range(1, 6)
    ]
    # the five seeds share blocks, bits, backend and sweeps, so they anneal in lockstep
    return iterate_many(system, configs, exact_solution=exact)


@pytest.fixture(scope="module")
def classical_run(heat_demo):
    _, system, exact = heat_demo
    return classical_gauss_seidel(system, tol=1e-12, max_iters=400, exact_solution=exact)


def test_criterion_01_energy_identity():
    rng = np.random.default_rng(SUITE_SEED)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 5))
        bits = int(rng.integers(1, 4))
        a = rng.uniform(-2.0, 2.0, (n, n))
        b = rng.uniform(-2.0, 2.0, n)
        enc = BinaryEncoding(n, bits, rng.uniform(0.5, 2.0, n), rng.uniform(-1.0, 1.0, n))
        qubo = encode(LinearSystem.from_dense(a, b), enc)
        bmat = all_bitstrings(n * bits)
        w = qubo.quadratic
        energies = bmat @ qubo.linear + 0.5 * np.einsum("si,si->s", bmat @ w, bmat)
        weights = 2.0 ** -np.arange(bits)
        xs = bmat.reshape(-1, n, bits) @ weights * enc.scale - enc.offset
        reference = np.sum((xs @ a.T - b) ** 2, axis=1)
        dev = np.abs(energies + qubo.offset - reference) / np.maximum(1.0, np.abs(reference))
        worst = max(worst, float(dev.max()))
    elapsed = time.perf_counter() - start
    report(1, worst <= 1e-9 and elapsed < 10.0,
           f"energy identity on 200 systems, worst relative deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_bilinear_exactness():
    start = time.perf_counter()
    worst = 0.0
    for m in (10, 11):  # the 81-unknown published grid plus the next refinement
        problem = HeatProblem(m)
        system = assemble_system(problem)
        x = direct_solve(system)
        expected = np.array(
            [100.0 * problem.node(i) * problem.node(j) for j in range(1, m) for i in range(1, m)]
        )
        worst = max(worst, float(np.abs(x - expected).max()))
    elapsed = time.perf_counter() - start
    report(2, worst <= 1e-9 and elapsed < 1.0,
           f"direct solves match 100*x*y/L^2, worst deviation {worst:.2e} degC, {elapsed:.2f}s")


def test_criterion_03_resource_counts():
    full = estimate_resources(81, 7, 1)
    split = estimate_resources(81, 7, 11)
    ok = full.full_system_qubits == 567 and split.block_size == 8 and split.per_block_qubits == 56
    report(3, ok, f"qubit counts: full={full.full_system_qubits}, per block of {split.block_size} -> {split.per_block_qubits}")


def test_criterion_04_block_gs_convergence(blockgs_run):
    trace, elapsed = blockgs_run
    monotone = bool(np.all(np.diff(trace.residuals) <= 0))
    ok = trace.converged and len(trace) <= 200 and monotone and elapsed < 1.0
    report(4, ok,
           f"81-unknown system, 9 exact blocks: tol 1e-10 in {len(trace)} iterations, "
           f"residual non-increasing={monotone}, {elapsed:.2f}s")


def test_criterion_05_plateau(heat_demo, gamma1_run, classical_run):
    _, system, exact = heat_demo
    enc = BinaryEncoding.uniform(system.n, 3, 50.0, 0.0)
    floor = np.linalg.norm(quantized_best(exact, enc) - exact) / np.linalg.norm(exact)
    errs = gamma1_run.errors
    ok = (
        errs[-1] >= floor - 1e-12
        and errs[19] - errs[9] <= 1e-12
        and classical_run.errors[-1] < 1e-8
    )
    report(5, ok,
           f"gamma=1 plateau: final e={errs[-1]:.3f} >= floor {floor:.3f}, e(20)-e(10)={errs[19]-errs[9]:.1e}, "
           f"classical e={classical_run.errors[-1]:.1e}")


def test_criterion_06_shrink_improvement(gamma1_run, gamma08_run, sa_shrink_runs):
    e30_fixed = gamma1_run.errors[29]
    e30_shrunk = gamma08_run.errors[29]
    median = np.median(np.stack([t.errors for t in sa_shrink_runs]), axis=0)
    monotone = bool(np.all(np.diff(median) <= 0))
    ok = e30_shrunk <= 0.1 * e30_fixed and monotone
    report(6, ok,
           f"shrink 0.8: e(30)={e30_shrunk:.4f} vs fixed {e30_fixed:.4f} "
           f"({e30_fixed / e30_shrunk:.0f}x better), SA median monotone={monotone}")


def test_criterion_07_sa_oracle_agreement():
    params = SamplerParams(num_reads=50, seed=SUITE_SEED)
    misses = []
    for name, prob in small_corpus():
        assert prob.size <= 12
        exact = solve_exhaustive(prob).best_sample.energy
        got = solve_sa(prob, params).best_sample.energy
        if got != exact:
            misses.append(name)
    report(7, not misses, f"SA reached the exhaustive minimum on all {len(small_corpus())} corpus problems"
           + (f" (missed: {misses})" if misses else ""))


def test_criterion_08_two_block_condition(heat_demo):
    _, system, _ = heat_demo
    good = check_convergence_condition(system, partition(system.n, 2))
    bad = check_convergence_condition(
        LinearSystem.from_dense([[1.0, 2.0], [2.0, 1.0]], [1.0, 1.0]), partition(2, 2)
    )

    rng = np.random.default_rng(SUITE_SEED + 8)
    worst = 0.0
    for _ in range(10):
        a = rng.uniform(-1.0, 1.0, (4, 4)) + 5 * np.eye(4)
        sys4 = LinearSystem.from_dense(a, rng.uniform(-1.0, 1.0, 4))
        exact = direct_solve(sys4)
        first_map = np.linalg.solve(a[:2, :2], a[:2, 2:]) @ np.linalg.solve(a[2:, 2:], a[2:, :2])
        part = partition(4, 2)
        x = np.zeros(4)
        for sweep in range(5):
            x_next = gs_sweep(sys4, part, x, lambda sub, lo, hi: direct_solve(sub))
            if sweep >= 1:
                predicted = first_map @ (x[:2] - exact[:2])
                worst = max(worst, float(np.abs((x_next[:2] - exact[:2]) - predicted).max()))
            x = x_next
    ok = good.sufficient and not bad.sufficient and worst <= 1e-8
    report(8, ok,
           f"half-split verdict={good.sufficient}, strong-coupling verdict={bad.sufficient}, "
           f"contraction-map mismatch {worst:.1e} (first-block operator = A11^-1 A12 A22^-1 A21)")


def test_criterion_09_sweep_determinism(tmp_path):
    cfg_path = tmp_path / "sweep.ini"
    cfg_path.write_text(
        "[problem]\nm = 4\n\n"
        "[solver]\nblocks = 3\nmax_iters = 10\ntol = 1e-9\nnum_reads = 8\nsweeps = 40\n\n"
        "[sweep]\nbits = 2,3\ngammas = 1.0,0.8\nbackends = exact,sa\nseeds = 11,12\n"
    )
    assert cli.main(["sweep", str(cfg_path), "--out-dir", str(tmp_path / "a")]) == 0
    assert cli.main(["sweep", str(cfg_path), "--out-dir", str(tmp_path / "b")]) == 0
    first = (tmp_path / "a" / "sweep.csv").read_bytes()
    second = (tmp_path / "b" / "sweep.csv").read_bytes()
    report(9, first == second, f"repeated sweep produced byte-identical CSV ({len(first)} bytes)")


def test_criterion_10_error_residual_bound(kappa, blockgs_run, gamma1_run, gamma08_run, sa_shrink_runs, classical_run):
    traces = [blockgs_run[0], gamma1_run, gamma08_run, classical_run, *sa_shrink_runs]
    points = 0
    ok = True
    for trace in traces:
        for rec in trace.records:
            if rec.relative_error is None:
                continue
            points += 1
            if rec.relative_error > kappa * rec.residual * (1 + 1e-6):
                ok = False
    report(10, ok and points > 0, f"e <= kappa*r held at all {points} recorded trace points (kappa={kappa:.2f})")
