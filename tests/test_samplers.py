import dataclasses

import numpy as np
import pytest

from conftest import SUITE_SEED
from corpus_problems import small_corpus
from qubogs.blocksolve import SolveConfig, iterate
from qubogs.encoding import BinaryEncoding, QuboProblem, decode, encode
from qubogs.heatgrid import HeatProblem, assemble_system
from qubogs.linear import LinearSystem
from qubogs.reference import direct_solve
from qubogs import samplers
from qubogs.samplers import (
    _DRAW_BYTES,
    Sample,
    SampleSet,
    SamplerParams,
    _initial_bits,
    _seed_states,
    _seed_words,
    default_beta_range,
    energy,
    solve_exhaustive,
    solve_sa,
    solve_sa_many,
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
    for seed in (-1, 1.5, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="seed"):
            SamplerParams(seed=seed)
    assert type(SamplerParams(seed=3.0).seed) is int
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
    # finite endpoints whose ratio overflows would make every beta after the first inf
    with pytest.raises(ValueError, match="ratio"):
        SamplerParams(beta_initial=1e-300, beta_final=1e300)
    assert SamplerParams(beta_initial=1e-300, beta_final=1e7).beta_final == 1e7


def test_derived_beta_ratio_must_be_finite():
    # a subnormal coefficient makes default_beta_range's beta_final = 10 / 5e-324 overflow to inf
    prob = QuboProblem(2, np.array([1.0, 5e-324]), np.zeros((2, 2)), 0.0)
    assert default_beta_range(prob)[1] == np.inf
    with pytest.raises(ValueError, match="finite ratio beta_final / beta_initial"):
        solve_sa(prob, SamplerParams(num_reads=2, sweeps=5))


def test_explicit_beta_schedule_used():
    _, prob = small_corpus()[1]
    a = solve_sa(prob, SamplerParams(num_reads=10, sweeps=40, seed=3, beta_initial=0.01, beta_final=20.0))
    b = solve_sa(prob, SamplerParams(num_reads=10, sweeps=40, seed=3))
    assert a.total_reads == b.total_reads == 10  # both run; schedules may or may not agree


def test_sa_many_requires_shared_size_and_sweeps():
    two, three = (QuboProblem(n, np.ones(n), np.zeros((n, n)), 0.0) for n in (2, 3))
    with pytest.raises(ValueError, match="size"):
        solve_sa_many([(two, SamplerParams(sweeps=5)), (three, SamplerParams(sweeps=5))])
    with pytest.raises(ValueError, match="sweep"):
        solve_sa_many([(two, SamplerParams(sweeps=5)), (two, SamplerParams(sweeps=6))])


NUMPY = f"numpy {np.__version__}"


def test_seed_states_port_seed_sequence():
    # all in one call: reads' (seed, read) of widths 2 to 5, which pad the pool with zeros, fill it
    # and overflow it, and block solves' (seed, k, lo) of widths 3 to 6, seeded by the first word
    seeds = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**70 + 3, 2**96 + 5, 2**127 + 11)
    reads = [(seed, read) for seed in seeds for read in (0, 1, 2**32 - 1)]
    blocks = [(seed, k, lo) for seed in seeds for k in (1, 60) for lo in (0, 72)]
    states = _seed_states([[*_seed_words(seed), *rest] for seed, *rest in reads + blocks])
    assert states.dtype == np.uint64 and states.flags.c_contiguous
    for key, state in zip(reads + blocks, states):
        sequence = np.random.SeedSequence(key)
        assert np.array_equal(state, sequence.generate_state(4, np.uint64)), f"SeedSequence({key}) under {NUMPY}"
        assert state[0] == sequence.generate_state(1, np.uint64)[0], f"SeedSequence({key}) under {NUMPY}"


def test_initial_bits_match_integers_draws():
    # every size from 0 to 70 bits, odd sizes leaving a buffered half-word behind; the doubles
    # the kernel draws next must not notice the difference
    for size in range(71):
        ours = [np.random.default_rng((size, read)) for read in range(3)]
        refs = [np.random.default_rng((size, read)) for read in range(3)]
        bits = _initial_bits(ours, size)
        want = np.stack([rng.integers(0, 2, size) for rng in refs])
        assert bits.shape == want.shape and np.array_equal(bits, want), f"{size} bits under {NUMPY}"
        for a, b in zip(ours, refs):
            assert np.array_equal(a.random(5), b.random(5)), f"doubles after {size} bits under {NUMPY}"


def test_oracle_sweeps_cross_several_draw_blocks():
    # the loop oracle's largest runs (64 reads of up to 30 bits) anneal ORACLE_SWEEPS[-1]
    # sweeps in at least three acceptance-draw blocks at the default budget
    assert ORACLE_SWEEPS[-1] * max(ORACLE_READS) * 30 * 8 > 2 * _DRAW_BYTES


@pytest.mark.parametrize("draw_bytes", [1, 8 * 64 * 17 * 7, 8 * 80 * 17 * 19], ids=["1-sweep", "7-sweep", "19-sweep"])
def test_draw_blocks_of_any_length(monkeypatch, draw_bytes):
    # blocks of 1 sweep, of 7 sweeps for the 64-read run alone and of 19 sweeps for the 80-read call
    monkeypatch.setattr(samplers, "_DRAW_BYTES", draw_bytes)
    rng = np.random.default_rng(draw_bytes)
    # 40 sweeps each: 1 read; 15 reads with readout noise; 64 reads with explicit betas
    runs = [(random_qubo(rng, 17), oracle_params(i, 40 + i)) for i in (1, 13, 25)]
    for run in runs:
        assert solve_sa(*run) == loop_solve_sa(*run), f"{run[1]}"
    assert solve_sa_many(runs) == [loop_solve_sa(*run) for run in runs]


LOOP_SWEEP_BLOCK = 16  # the loop's own draw chunking; a read's stream does not depend on it


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
    for block_start in range(0, params.sweeps, LOOP_SWEEP_BLOCK):
        block = min(LOOP_SWEEP_BLOCK, params.sweeps - block_start)
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


def structured_qubo(rng, size: int, band: int | None = None, block: int | None = None, zero_row: int | None = None) -> QuboProblem:
    """``random_qubo`` with pairs only within ``band`` of the diagonal or within diagonal blocks of ``block`` bits.

    ``zero_row`` clears one bit's row and column, so that bit couples to nothing.
    """
    prob = random_qubo(rng, size)
    offset = np.abs(np.subtract.outer(np.arange(size), np.arange(size)))
    keep = np.ones((size, size), dtype=bool)
    if band is not None:
        keep &= offset <= band
    if block is not None:
        keep &= np.equal.outer(np.arange(size) // block, np.arange(size) // block)
    if zero_row is not None:
        keep[zero_row] = keep[:, zero_row] = False
    return QuboProblem(size, prob.linear, np.where(keep, prob.quadratic, 0.0), 0.0)


class TestLoopSaOracle:
    """The sign kernel, its coupled spans, its packed-bit tally and its word seeding reproduce the loop annealer exactly."""

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

    def test_lockstep_groups(self):
        # 1 to 4 runs per call sharing size and sweeps, differing in seed, reads, noise and betas
        rng = np.random.default_rng(5150)
        for i in range(24):
            size = int(rng.integers(1, 31))
            runs = [
                (random_qubo(rng, size), oracle_params(3 * int(rng.integers(12)) + i % 3, int(rng.integers(10**6))))
                for _ in range(1 + i % 4)
            ]
            assert solve_sa_many(runs) == [loop_solve_sa(*run) for run in runs], f"group {i} with {[p for _, p in runs]}"

    def test_extreme_betas(self):
        # coefficients up to 1e3 under betas 0.5..50 push -beta*dE past the loop's clamp at 50
        # and past 709, where exp overflows; the suite turns an overflow warning into an error
        rng = np.random.default_rng(709)
        runs = []
        for seed in range(3):
            scales = 10.0 ** rng.integers(-1, 4, 12)
            upper = np.triu(rng.uniform(-1.0, 1.0, (12, 12)) * np.sqrt(np.outer(scales, scales)), 1)
            problem = QuboProblem(12, rng.uniform(-1.0, 1.0, 12) * scales, upper + upper.T, 0.0)
            runs.append((problem, SamplerParams(16, 40, 0.5, 50.0, seed)))
        assert solve_sa_many(runs) == [loop_solve_sa(*run) for run in runs]

    def test_seeds_of_several_words(self):
        # seeds of two words (2^32, 2^64 - 1) and three words (2^70 + 3), alone and sharing one call
        rng = np.random.default_rng(2**32)
        seeds = (2**32, 2**64 - 1, 2**70 + 3)
        runs = [(random_qubo(rng, 11), oracle_params(4 + 9 * i, seed)) for i, seed in enumerate(seeds)]
        for run in runs:
            assert solve_sa(*run) == loop_solve_sa(*run), f"seed {run[1].seed}"
        assert solve_sa_many(runs) == [loop_solve_sa(*run) for run in runs]

    @pytest.mark.parametrize("shape", [{"band": 2}, {"band": 5}, {"block": 4}, {"block": 7}])
    def test_banded_and_block_diagonal_pairs(self, shape):
        # each bit's span covers only its band or block; one bit couples to nothing
        rng = np.random.default_rng(3 + sum(shape.values()))
        for i in range(8):
            size = int(rng.integers(8, 30))
            prob = structured_qubo(rng, size, zero_row=int(rng.integers(size)), **shape)
            assert not prob.quadratic.any(axis=1).all()
            params = oracle_params(5 * i + 1, 1000 + i)
            assert solve_sa(prob, params) == loop_solve_sa(prob, params), f"case {i} with {params}"

    def test_runs_with_different_spans_share_a_call(self):
        # a call's span for bit l runs over every run's couplings of bit l:
        # narrow bands, blocks, a zero row in one run only and a dense run together
        rng = np.random.default_rng(1515)
        size = 20
        problems = [
            structured_qubo(rng, size, band=1),
            structured_qubo(rng, size, block=5, zero_row=0),
            structured_qubo(rng, size, band=3, zero_row=size - 1),
            random_qubo(rng, size),
        ]
        for narrow in (problems[:3], problems):
            runs = [(prob, oracle_params(3 * j + 1, 77 + j)) for j, prob in enumerate(narrow)]
            assert solve_sa_many(runs) == [loop_solve_sa(*run) for run in runs]

    @pytest.mark.parametrize("size", [54, 56, 63, 64, 65, 70])
    def test_tally_of_wide_bitstrings(self, size):
        # linear terms of 3 or 4 outweigh the at most two pairs of 0.5 per bit, so cold
        # sweeps settle every bit but three uncoupled free ones, which flip on each
        # turn; the 64 reads repeat at most 8 bitstrings that differ beyond byte one
        rng = np.random.default_rng(size)
        linear = rng.choice([-4.0, -3.0, 3.0, 4.0], size)
        free = [5, size // 2, size - 2]
        linear[free] = 0.0
        pairs = np.diag(rng.choice([-0.5, 0.0, 0.5], size - 1), 1)
        pairs[free] = pairs[:, free] = 0.0
        prob = QuboProblem(size, linear, pairs + pairs.T, 0.0)
        for sweeps, noise in ((3, 0.0), (4, 0.0), (3, 0.02)):
            params = SamplerParams(64, sweeps, 2.0, 20.0, size, noise)
            result = solve_sa(prob, params)
            assert result == loop_solve_sa(prob, params), f"{sweeps} sweeps, noise {noise}"
            if noise == 0.0:
                assert 1 < len(result.samples) <= 8 and max(s.occurrences for s in result.samples) > 1

    def test_non_c_ordered_pair_matrices(self):
        # an F-ordered copy and a transposed view carry the same symmetric W
        rng = np.random.default_rng(4242)
        for i in range(6):
            prob = random_qubo(rng, int(rng.integers(2, 25)))
            params = oracle_params(6 * i + 2, 500 + i)
            want = loop_solve_sa(prob, params)
            for quadratic in (np.asfortranarray(prob.quadratic), np.ascontiguousarray(prob.quadratic).T):
                strided = QuboProblem(prob.size, prob.linear, quadratic, 0.0)
                assert strided.quadratic.flags.f_contiguous and not strided.quadratic.flags.c_contiguous
                assert solve_sa(strided, params) == want == loop_solve_sa(strided, params), f"case {i} with {params}"


def test_sa_many_leaves_inputs_unchanged():
    rng = np.random.default_rng(31)
    # 40 sweeps each; 15, 15 and 64 reads; the second adds readout noise, the third explicit betas
    runs = [(random_qubo(rng, 9), oracle_params(i, i)) for i in (4, 13, 25)]
    before = [(problem.linear.copy(), problem.quadratic.copy(), dataclasses.replace(params)) for problem, params in runs]
    first = solve_sa_many(runs)
    for (problem, params), (linear, quadratic, params_before) in zip(runs, before):
        assert np.array_equal(problem.linear, linear) and np.array_equal(problem.quadratic, quadratic)
        assert params == params_before
    assert solve_sa_many(runs) == first
