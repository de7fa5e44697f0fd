import numpy as np
import pytest

from conftest import SUITE_SEED
from corpus_problems import small_corpus
from qubogs.encoding import BinaryEncoding, QuboProblem, decode, encode
from qubogs.linear import LinearSystem
from qubogs.reference import direct_solve
from qubogs.samplers import SamplerParams, default_beta_range, energy, solve_exhaustive, solve_sa


def test_energy_examples():
    zero = QuboProblem(3, np.zeros(3), np.zeros((3, 3)), 0.0)
    assert energy(zero, [0, 0, 0]) == 0.0
    single = QuboProblem(1, np.array([3.0]), np.zeros((1, 1)), 0.0)
    assert energy(single, [1]) == 3.0
    folded = QuboProblem(1, np.array([-1.0]), np.zeros((1, 1)), 1.0)
    assert energy(folded, [1]) == -1.0


def test_energy_length_mismatch():
    with pytest.raises(ValueError):
        energy(QuboProblem(2, np.zeros(2), np.zeros((2, 2)), 0.0), [1])


def test_exhaustive_positive_linear():
    prob = QuboProblem(5, np.array([0.5, 1.0, 2.0, 0.1, 3.0]), np.zeros((5, 5)), 0.0)
    best = solve_exhaustive(prob).best_sample
    assert best.bits == (0,) * 5
    assert best.energy == 0.0
    assert best.occurrences == 1


def test_exhaustive_unit_system():
    system = LinearSystem.from_dense([[1.0]], [1.0])
    qubo = encode(system, BinaryEncoding.uniform(1, 1, 1.0, 0.0))
    best = solve_exhaustive(qubo).best_sample
    assert best.bits == (1,)
    assert best.energy == -1.0


def test_exhaustive_beats_quantized_truth():
    # the scanned minimum can only improve on rounding the exact solution to the grid
    rng = np.random.default_rng(15)
    for _ in range(10):
        m = rng.uniform(-1, 1, (2, 2))
        a = m @ m.T + 2.0 * np.eye(2)
        system = LinearSystem.from_dense(a, rng.uniform(0.5, 2.0, 2))
        truth = direct_solve(system)
        half = float(np.abs(truth).max() * 1.5 + 0.5)
        enc = BinaryEncoding.uniform(2, 3, half, half)  # interval [-half, half)
        step = enc.resolution()
        quantized = enc.lower() + np.clip(np.round((truth - enc.lower()) / step), 0, 2**3 - 1) * step
        qubo = encode(system, enc)
        best = decode(solve_exhaustive(qubo).best_sample.bits, enc)
        r_best = np.linalg.norm(a @ best - system.b)
        r_quant = np.linalg.norm(a @ quantized - system.b)
        assert r_best <= r_quant + 1e-12


def test_exhaustive_size_limit():
    with pytest.raises(ValueError):
        solve_exhaustive(QuboProblem(25, np.zeros(25), np.zeros((25, 25)), 0.0))


def test_exhaustive_scan_crosses_chunk_boundaries():
    # 19 binary variables force the scan through multiple enumeration chunks;
    # with pure linear terms the minimum sets exactly the negative coefficients
    rng = np.random.default_rng(2)
    lin = rng.uniform(-1.0, 1.0, 19)
    best = solve_exhaustive(QuboProblem(19, lin, np.zeros((19, 19)), 0.0)).best_sample
    assert best.bits == tuple(int(v < 0) for v in lin)
    assert best.energy == pytest.approx(float(lin[lin < 0].sum()), abs=1e-12)


def test_exhaustive_tie_break_across_chunks(monkeypatch):
    import qubogs.samplers as samplers

    monkeypatch.setattr(samplers, "_CHUNK", 8)  # force many chunks on a tiny scan
    best = solve_exhaustive(QuboProblem(6, np.zeros(6), np.zeros((6, 6)), 0.0)).best_sample
    assert best.bits == (0,) * 6  # earliest (lexicographically smallest) tie wins
    rng = np.random.default_rng(4)
    lin = rng.uniform(-1.0, 1.0, 6)
    chunked = solve_exhaustive(QuboProblem(6, lin, np.zeros((6, 6)), 0.0)).best_sample
    monkeypatch.setattr(samplers, "_CHUNK", 1 << 18)
    assert chunked == solve_exhaustive(QuboProblem(6, lin, np.zeros((6, 6)), 0.0)).best_sample


def test_exhaustive_tie_break_lexicographic():
    # every state of the zero problem has energy 0; the scan must report all-zeros
    best = solve_exhaustive(QuboProblem(4, np.zeros(4), np.zeros((4, 4)), 0.0)).best_sample
    assert best.bits == (0, 0, 0, 0)


def test_sa_matches_exhaustive_on_corpus():
    params = SamplerParams(num_reads=50, seed=SUITE_SEED)
    for name, prob in small_corpus():
        exact = solve_exhaustive(prob).best_sample.energy
        got = solve_sa(prob, params).best_sample.energy
        assert got == exact, f"{name}: sa best {got} != exhaustive best {exact}"


def test_sa_deterministic():
    _, prob = small_corpus()[3]
    params = SamplerParams(num_reads=20, sweeps=100, seed=9)
    assert solve_sa(prob, params) == solve_sa(prob, params)


def test_sa_reports_all_reads_sorted():
    _, prob = small_corpus()[2]
    result = solve_sa(prob, SamplerParams(num_reads=30, sweeps=50, seed=4))
    assert result.total_reads == 30
    energies = [s.energy for s in result.samples]
    assert energies == sorted(energies)
    assert result.best == 0
    assert all(result.best_sample.energy <= e for e in energies)


def test_sa_energies_recomputable():
    _, prob = small_corpus()[1]
    result = solve_sa(prob, SamplerParams(num_reads=25, sweeps=60, seed=13, noise_p=0.2))
    for sample in result.samples:
        assert energy(prob, sample.bits) == pytest.approx(sample.energy, rel=1e-9, abs=1e-12)


def test_sa_noise_hamming_statistics():
    _, prob = small_corpus()[3]  # 12 binary variables
    reads = 400
    result = solve_sa(prob, SamplerParams(num_reads=reads, sweeps=50, seed=7, noise_p=0.5))
    mean_weight = sum(sum(s.bits) * s.occurrences for s in result.samples) / reads
    size = prob.size
    sigma = np.sqrt(size * 0.25 / reads)
    assert abs(mean_weight - size / 2) <= 3 * sigma


def test_default_beta_range():
    prob = QuboProblem(2, np.array([0.5, -4.0]), np.array([[0.0, 0.25], [0.25, 0.0]]), 0.0)
    lo, hi = default_beta_range(prob)
    assert lo == pytest.approx(0.1 / 4.0)
    assert hi == pytest.approx(10.0 / 0.25)
    assert default_beta_range(QuboProblem(2, np.zeros(2), np.zeros((2, 2)), 0.0)) == (0.1, 10.0)


def test_params_validation():
    with pytest.raises(ValueError):
        SamplerParams(num_reads=0)
    with pytest.raises(ValueError):
        SamplerParams(beta_initial=1.0)  # missing the other endpoint
    with pytest.raises(ValueError):
        SamplerParams(beta_initial=2.0, beta_final=1.0)
    with pytest.raises(ValueError):
        SamplerParams(noise_p=1.0)
    with pytest.raises(ValueError):
        SamplerParams(seed=-1)


def test_explicit_beta_schedule_used():
    _, prob = small_corpus()[1]
    a = solve_sa(prob, SamplerParams(num_reads=10, sweeps=40, seed=3, beta_initial=0.01, beta_final=20.0))
    b = solve_sa(prob, SamplerParams(num_reads=10, sweeps=40, seed=3))
    assert a.total_reads == b.total_reads == 10  # both run; schedules may or may not agree
