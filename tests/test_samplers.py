import numpy as np
import pytest

from conftest import SUITE_SEED
from corpus_problems import small_corpus
from qubogs.blocksolve import SolveConfig, iterate
from qubogs.encoding import BinaryEncoding, QuboProblem, decode, encode
from qubogs.heatgrid import HeatProblem, assemble_system
from qubogs.linear import LinearSystem
from qubogs.reference import direct_solve
from qubogs.samplers import (
    _SWEEP_BLOCK,
    Sample,
    SampleSet,
    SamplerParams,
    default_beta_range,
    energy,
    solve_exhaustive,
    solve_sa,
)


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
    for key in ("num_reads", "sweeps"):
        for bad in (2.5, 0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=key):
                SamplerParams(**{key: bad})
    params = SamplerParams(num_reads=4.0, sweeps=np.int64(7))
    assert (params.num_reads, params.sweeps) == (4, 7)
    assert type(params.num_reads) is int and type(params.sweeps) is int
    for lo, hi in [(1.0, np.inf), (np.nan, np.nan), (np.nan, 1.0), (1.0, np.nan), (np.inf, np.inf)]:
        with pytest.raises(ValueError):
            SamplerParams(beta_initial=lo, beta_final=hi)


def test_explicit_beta_schedule_used():
    _, prob = small_corpus()[1]
    a = solve_sa(prob, SamplerParams(num_reads=10, sweeps=40, seed=3, beta_initial=0.01, beta_final=20.0))
    b = solve_sa(prob, SamplerParams(num_reads=10, sweeps=40, seed=3))
    assert a.total_reads == b.total_reads == 10  # both run; schedules may or may not agree


def loop_solve_sa(problem: QuboProblem, params: SamplerParams) -> SampleSet:
    """Reference annealer: flips only the accepting reads and tallies reads in a dict.

    The beta range comes from the upper-triangle pair coefficients, as it was
    computed before ``default_beta_range`` read the whole pair matrix.
    """
    size = problem.size
    beta_lo, beta_hi = params.beta_initial, params.beta_final
    if beta_lo is None:
        mags = np.abs(np.concatenate([problem.linear, problem.quadratic[np.triu_indices(size, 1)]]))
        largest = mags.max() if mags.size else 0.0
        nonzero = mags[mags > 0]
        beta_lo, beta_hi = (0.1, 10.0) if largest == 0.0 or nonzero.size == 0 else (0.1 / largest, 10.0 / float(nonzero.min()))
    if params.sweeps == 1:
        betas = np.array([beta_lo])
    else:
        betas = beta_lo * (beta_hi / beta_lo) ** (np.arange(params.sweeps) / (params.sweeps - 1))

    w = problem.quadratic
    rngs = [np.random.default_rng((params.seed, read)) for read in range(params.num_reads)]
    q = np.stack([rng.integers(0, 2, size=size).astype(float) for rng in rngs])
    fields = problem.linear[None, :] + q @ w
    for block_start in range(0, params.sweeps, _SWEEP_BLOCK):
        block = min(_SWEEP_BLOCK, params.sweeps - block_start)
        accepts = np.stack([rng.random((block, size)) for rng in rngs])
        for t in range(block):
            beta = betas[block_start + t]
            for l in range(size):
                delta = (1.0 - 2.0 * q[:, l]) * fields[:, l]
                idx = np.nonzero(accepts[:, t, l] < np.exp(np.minimum(-beta * delta, 50.0)))[0]
                if idx.size == 0:
                    continue
                sign = 1.0 - 2.0 * q[idx, l]
                q[idx, l] += sign
                fields[idx] += sign[:, None] * w[l]
    if params.noise_p > 0:
        noise = np.stack([rng.random(size) for rng in rngs])
        q = np.where(noise < params.noise_p, 1.0 - q, q)

    counts: dict[tuple[int, ...], int] = {}
    for read in range(params.num_reads):
        bits = tuple(int(b) for b in q[read])
        counts[bits] = counts.get(bits, 0) + 1
    samples = [Sample(bits, energy(problem, bits), occ) for bits, occ in counts.items()]
    samples.sort(key=lambda s: (s.energy, s.bits))
    return SampleSet(samples)


# sweeps of 1, within one draw block, and across three draw blocks
ORACLE_SWEEPS = (1, 40, 300)
ORACLE_READS = (1, 15, 64)
ORACLE_NOISE = (0.0, 0.3)
ORACLE_BETAS = ((None, None), (0.05, 8.0))


def oracle_params(i: int, seed: int) -> SamplerParams:
    """The i-th point, modulo 36, of the sweeps x reads x noise x beta grid."""
    sweeps = ORACLE_SWEEPS[i % 3]
    reads = ORACLE_READS[i // 3 % 3]
    noise = ORACLE_NOISE[i // 9 % 2]
    beta_initial, beta_final = ORACLE_BETAS[i // 18 % 2]
    return SamplerParams(reads, sweeps, beta_initial, beta_final, seed, noise)


def random_qubo(rng, size: int) -> QuboProblem:
    """Real or small-integer coefficients; integer ones make zero fields and exact ties common."""
    if rng.random() < 0.5:
        linear = rng.integers(-2, 3, size).astype(float)
        pairs = rng.integers(-2, 3, (size, size)).astype(float)
    else:
        linear = rng.uniform(-5.0, 5.0, size) * 10.0 ** rng.integers(-3, 3)
        pairs = rng.uniform(-5.0, 5.0, (size, size)) * (rng.random((size, size)) < 0.7)
    upper = np.triu(pairs, 1)
    return QuboProblem(size, linear, upper + upper.T, 0.0)


class TestLoopSaOracle:
    """The masked single-flip kernel and np.unique tally reproduce the loop annealer exactly."""

    def test_small_corpus(self):
        for i, (name, prob) in enumerate(small_corpus()):
            for j in range(i % 6, 36, 6):  # a sixth of the grid per problem, shifting with the problem
                params = oracle_params(j, 100 * i + j)
                assert solve_sa(prob, params) == loop_solve_sa(prob, params), f"{name} with {params}"

    def test_random_qubos(self):
        rng = np.random.default_rng(8808)
        for i in range(100):
            prob = random_qubo(rng, int(rng.integers(1, 31)))
            params = oracle_params(i, i)
            assert solve_sa(prob, params) == loop_solve_sa(prob, params), f"case {i} with {params}"

    def test_block_qubos_of_sourced_sa_solve(self):
        problem = HeatProblem(10, sources=[(2, 3, 25.0), (7, 8, -15.0)])
        system = assemble_system(problem)
        seen = []

        def recording_sa(qubo, params):
            result = solve_sa(qubo, params)
            seen.append((qubo, params, result))
            return result

        sampler = SamplerParams(num_reads=15, sweeps=40, seed=SUITE_SEED)
        config = SolveConfig(blocks=9, bits=3, gamma=0.8, tol=1e-3, max_iters=6, backend=recording_sa, sampler=sampler)
        iterate(system, config)
        assert len(seen) == 54
        for qubo, params, result in seen:
            assert qubo.size == 27
            assert result == loop_solve_sa(qubo, params)
