"""QUBO minimization backends standing in for annealing hardware.

Two built-in backends share the sampler interface
``sample(problem, params) -> SampleSet``: an exhaustive scan (exact, for small
problems) and seeded single-spin-flip simulated annealing. Anything callable
with that signature can serve as a backend for the block solver, which is the
attachment point for real annealer clients.

The annealing kernel, ``solve_sa_many``, anneals the reads of several runs at
once on spins ``s = 1 - 2q`` held bits-major, and gives bit for bit the samples
of a per-read Metropolis loop; its docstring gives the exactness argument.
"""

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .encoding import QuboProblem
from .linear import whole_number

EXHAUSTIVE_LIMIT = 24  # 2^24 states is still enumerable in seconds
_CHUNK = 1 << 18
_CACHED_BITS = 12  # scans up to 4,096 x 12 bits reuse one bit matrix (384 KiB) instead of allocating it per scan


@dataclass
class SamplerParams:
    """Annealing run settings; betas left as None are derived from the problem.

    The automatic schedule spans beta_initial = 0.1 / max|coefficient| to
    beta_final = 10 / min nonzero |coefficient|, geometric over the sweeps.
    Given or derived, beta_final / beta_initial must be finite (``geometric_betas``).
    ``noise_p`` flips each returned bit independently after annealing, a crude
    stand-in for hardware readout imperfections.
    """

    num_reads: int = 100
    sweeps: int = 1000
    beta_initial: float | None = None
    beta_final: float | None = None
    seed: int = 0
    noise_p: float = 0.0

    def __post_init__(self):
        for name in ("num_reads", "sweeps"):
            setattr(self, name, whole_number(name, getattr(self, name)))
        if (self.beta_initial is None) != (self.beta_final is None):
            raise ValueError("set both beta endpoints or neither")
        if self.beta_initial is not None and not 0.0 < self.beta_initial <= self.beta_final < np.inf:
            raise ValueError("beta schedule requires finite beta_final >= beta_initial > 0")
        if self.beta_initial is not None:
            geometric_betas(self.beta_initial, self.beta_final, self.sweeps)  # the ratio rule of every schedule
        if not 0.0 <= self.noise_p < 1.0:
            raise ValueError("noise_p must lie in [0, 1)")
        self.seed = whole_number("seed", self.seed, least=0)


@dataclass
class Sample:
    bits: tuple[int, ...]
    energy: float
    occurrences: int = 1


@dataclass
class SampleSet:
    """Samples sorted by (energy, bitstring), so ``samples[0]`` is the best one."""

    samples: list[Sample]

    @property
    def best_sample(self) -> Sample:
        return self.samples[0]

    @property
    def total_reads(self) -> int:
        return sum(s.occurrences for s in self.samples)


def energy(problem: QuboProblem, bits) -> float:
    """Evaluate a.q + q^T W q / 2 = sum_l a_l q_l + sum_{l<k} W_lk q_l q_k for one bitstring."""
    q = np.asarray(bits, dtype=float)
    if q.shape != (problem.size,):
        raise ValueError(f"bitstring must have length {problem.size}, got {q.shape}")
    return float(problem.linear @ q + 0.5 * (q @ problem.quadratic @ q))


def default_beta_range(problem: QuboProblem) -> tuple[float, float]:
    # W is symmetric with a zero diagonal, so its entries have the magnitudes of the pairs
    mags = np.abs(np.concatenate([problem.linear, problem.quadratic.ravel()]))
    nonzero = mags[mags > 0]
    if nonzero.size == 0:
        return 0.1, 10.0
    return 0.1 / nonzero.max(), 10.0 / float(nonzero.min())


def geometric_betas(beta_initial: float, beta_final: float, sweeps: int) -> np.ndarray:
    """The geometric beta of each sweep, for given endpoints or ``default_beta_range``'s; their ratio must be finite."""
    if not beta_final / beta_initial < np.inf:  # else every beta after the first is inf
        raise ValueError(f"beta schedule requires a finite ratio beta_final / beta_initial, got {beta_final:g} / {beta_initial:g}")
    return beta_initial * (beta_final / beta_initial) ** (np.arange(sweeps) / max(sweeps - 1, 1))


def _bit_matrix(states: np.ndarray, size: int) -> np.ndarray:
    # bit l of state s sits at shift size-1-l, so ascending state order is
    # ascending lexicographic bitstring order
    shifts = size - 1 - np.arange(size)
    return ((states[:, None] >> shifts[None, :]) & 1).astype(float)


@functools.cache
def _all_bit_rows(size: int) -> np.ndarray:
    """Every bitstring of ``size`` bits in ascending order, built once per size and read-only."""
    bmat = _bit_matrix(np.arange(1 << size, dtype=np.int64), size)
    bmat.flags.writeable = False
    return bmat


def check_exhaustive(size: int) -> None:
    """Raise ValueError when ``solve_exhaustive`` cannot scan ``size`` binary variables."""
    if size > EXHAUSTIVE_LIMIT:
        raise ValueError(f"{size} binary variables exceed the exhaustive limit of {EXHAUSTIVE_LIMIT}")


def solve_exhaustive(problem: QuboProblem) -> SampleSet:
    """Scan every bitstring and return the global minimum (deterministic).

    Ties resolve to the lexicographically smallest bitstring. Limited to
    ``EXHAUSTIVE_LIMIT`` binary variables.
    """
    size = problem.size
    check_exhaustive(size)
    w = problem.quadratic
    best_energy = np.inf
    best_state = 0
    total = 1 << size
    for start in range(0, total, _CHUNK):
        states = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        bmat = _all_bit_rows(size)[start : start + states.size] if size <= _CACHED_BITS else _bit_matrix(states, size)
        energies = bmat @ problem.linear + 0.5 * np.einsum("si,si->s", bmat @ w, bmat)
        i = int(np.argmin(energies))
        if energies[i] < best_energy:
            best_energy = float(energies[i])
            best_state = int(states[i])
    bits = tuple(int(b) for b in _bit_matrix(np.array([best_state]), size)[0])
    # re-evaluate the winner alone so its energy does not depend on the chunking
    return SampleSet([Sample(bits, energy(problem, bits), 1)])


# acceptance draws held at once: the sweeps that fit in this many bytes, at least one. 2 MiB holds
# 40 sweeps of a call of 150 reads x 27 bits, so each read fills them with one call
_DRAW_BYTES = 1 << 21

# the constants of numpy's SeedSequence hash (numpy/random/bit_generator.pyx), stable under NEP 19
_POOL_SIZE = 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _seed_words(seed: int) -> list[int]:
    """The uint32 words, least significant first, into which SeedSequence splits a nonnegative int."""
    words = [seed & 0xFFFFFFFF]
    while seed := seed >> 32:
        words.append(seed & 0xFFFFFFFF)
    return words


def _hashmix(value: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hash of uint32 words under the running constant; returns the hashes and the next constant."""
    const_next = const * mult & 0xFFFFFFFF
    value = (value ^ const) * const_next
    return value ^ value >> 16, const_next


def _seed_states(rows: list[list[int]]) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` for every row of uint32 words, as one C-ordered array.

    Ports SeedSequence's ``mix_entropy`` and ``generate_state`` to uint32
    array arithmetic, which wraps modulo 2^32 as the C code does; rows of one
    width are hashed together, one array element per row.
    """
    states = np.empty((len(rows), _POOL_SIZE), dtype=np.uint64)
    by_width: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        by_width.setdefault(len(row), []).append(i)
    for width, index in by_width.items():
        entropy = np.zeros((max(width, _POOL_SIZE), len(index)), dtype=np.uint32)  # (word, row), zero-padded to the pool
        entropy[:width] = np.array([rows[i] for i in index], dtype=np.uint32).T
        # mix_entropy: hash the first words into the pool, mix every pool word into
        # every other, then each further entropy word into every pool word
        const, pool = _INIT_A, np.empty((_POOL_SIZE, len(index)), dtype=np.uint32)
        for i in range(_POOL_SIZE):
            pool[i], const = _hashmix(entropy[i], const, _MULT_A)
        pool_pairs = itertools.permutations(range(_POOL_SIZE), 2)
        for src, dst in itertools.chain(pool_pairs, itertools.product(range(_POOL_SIZE, width), range(_POOL_SIZE))):
            hashed, const = _hashmix(pool[src] if src < _POOL_SIZE else entropy[src], const, _MULT_A)
            mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashed
            pool[dst] = mixed ^ mixed >> 16
        # generate_state: 8 uint32 words from the cycled pool, paired low word first
        const, words = _INIT_B, np.empty((2 * _POOL_SIZE, len(index)), dtype=np.uint64)
        for i in range(2 * _POOL_SIZE):
            words[i], const = _hashmix(pool[i % _POOL_SIZE], const, _MULT_B)
        states[index] = (words[0::2] | words[1::2] << 32).T
    return states


class _Words(np.random.bit_generator.ISeedSequence):
    """A seed sequence that hands a bit generator precomputed state words (PCG64 asks for 4 uint64s)."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def _initial_bits(rngs: list[np.random.Generator], size: int) -> np.ndarray:
    """``rng.integers(0, 2, size)`` of every generator, stacked.

    Each bit is the top bit of a 32-bit half of the generator's raw words, low half first.
    """
    raw = np.stack([rng.bit_generator.random_raw((size + 1) // 2) for rng in rngs])
    return ((raw[:, :, None] >> np.array([31, 63], dtype=np.uint64)) & 1).reshape(len(rngs), -1)[:, :size]


def solve_sa_many(runs: list[tuple[QuboProblem, SamplerParams]]) -> list[SampleSet]:
    """Simulated annealing on several (problem, params) runs of one size and sweep count at once.

    The reads of all runs stack into one array and anneal in lockstep; each
    read follows its own run's geometric beta schedule and pair matrix. Every
    read owns the random stream seeded by (its run's seed, read index), so a
    run's result is a pure function of its (problem, params), whatever else
    shares the call. Duplicate final bitstrings of a run aggregate into one
    sample with summed occurrences.

    Layout: run i holds reads ``bounds[i]:bounds[i + 1]`` of one cumulative
    sum of the read counts. Its fields (one matmul per run), beta schedule
    (given or derived endpoints, whose ratio must be finite) and pair rows are
    built once and laid over its reads. The kernel keeps spins ``s = 1 - 2q``
    rather than bits. ``s``, the fields, the signed betas and the updates are
    C-ordered ``(bit, read)`` buffers and the pair rows a C-ordered
    ``(bit, j, read)`` buffer, so every per-bit step works on contiguous rows;
    the draws fill one ``(read, sweep, bit)`` buffer per sweep block and are
    read through its ``(sweep, bit, read)`` view.

    It is exact against a per-read Metropolis loop. Multiplying by +-1 is
    exact, so ``(s * -beta) * field`` rounds as ``-beta * (s * field)`` does,
    and a sweep's signs are flipped once at its end because bit l's sign is
    read only on bit l's own turn. A read that keeps its bit adds a zero of
    either sign to the fields, which changes no nonzero sum. ``exp`` may
    overflow to inf only where ``-beta * dE > 709``, a move accepted whatever
    the draw.

    Span: bit l's turn updates only fields lo..hi-1, from the first to the
    last j with ``W[l, j] != 0`` in any run of the call. Every skipped entry
    would add ``0 * d = +-0``, which leaves a nonzero field as it is and can
    change only the sign of a zero field; a zero field gives ``exp(+-0) = 1``,
    which every draw in [0, 1) accepts, so its sign never decides a move.

    Tally: each run's final bits are packed with ``np.packbits`` (first bit
    most significant, zero padding) and viewed as one ``V{nbytes}`` item per
    read. Equal items are equal bitstrings, and the bytewise order of the items
    is the lexicographic order of the bitstrings, so the 1-D ``np.unique``
    finds the distinct bitstrings and counts that ``np.unique(q, axis=0)``
    does.

    Seeding: each read's generator is the one ``default_rng((seed, read))``
    builds. SeedSequence splits an int into its uint32 words, least
    significant first, and a tuple into its items' words in order, so the
    seed's words followed by the read index (one word) are the entropy of
    ``(seed, read)`` for a seed of any size. ``_seed_states`` hashes the
    entropy of every read of the call in one pass of uint32 array arithmetic,
    which wraps as SeedSequence's C code does, and gives the 4 words that
    ``SeedSequence.generate_state(4, np.uint64)`` would; numpy's PCG64 then
    seeds itself from them through ``_Words``. The initial bits are
    ``rng.integers(0, 2, size)``: that draw is Lemire's bounded method with
    range 2, which never rejects and keeps the top bit of each 32-bit word,
    and PCG64 serves 32-bit words as the halves of its 64-bit outputs, low
    half first. An odd size leaves a half-word buffered, which no later draw
    reads, since every later draw is a double taken from a whole output.
    """
    size, sweeps = runs[0][0].size, runs[0][1].sweeps
    if any(problem.size != size or params.sweeps != sweeps for problem, params in runs):
        raise ValueError("batched annealing runs must share problem size and sweep count")
    bounds = list(itertools.accumulate((params.num_reads for _, params in runs), initial=0))
    reads = bounds[-1]
    entropy = [[*_seed_words(params.seed), read] for _, params in runs for read in range(params.num_reads)]
    rngs = [np.random.Generator(np.random.PCG64(_Words(state))) for state in _seed_states(entropy)]
    initial_q = _initial_bits(rngs, size).astype(float)  # (read, bit)
    s = np.ascontiguousarray(1.0 - 2.0 * initial_q.T)  # (bit, read)
    fields = np.empty((size, reads))  # (bit, read)
    neg_betas = np.empty((sweeps, reads))  # (sweep, read)
    w_rows = np.empty((size, size, reads))  # w_rows[l] holds row l of each read's pair matrix
    coupled = np.zeros((size, size), dtype=bool)
    for (problem, params), start, stop in zip(runs, bounds, bounds[1:]):
        w = problem.quadratic
        # per-bit flip drive, maintained incrementally; one matmul per run rounds as a lone run does
        fields[:, start:stop] = (problem.linear[None, :] + initial_q[start:stop] @ w).T
        betas = default_beta_range(problem) if params.beta_initial is None else (params.beta_initial, params.beta_final)
        neg_betas[:, start:stop] = -geometric_betas(*betas, sweeps)[:, None]
        w_rows[:, :, start:stop] = w[:, :, None]
        coupled |= w != 0.0
    signed_betas, flips, update = np.empty_like(s), np.empty(s.shape, dtype=bool), np.empty_like(fields)
    arg, d = np.empty(reads), np.empty(reads)
    rows = []
    for l, nonzero in enumerate(coupled):  # bit l's span: the first to the last bit that some run couples to it
        lo, hi = (nonzero.argmax(), size - nonzero[::-1].argmax()) if nonzero.any() else (0, 0)
        rows.append((signed_betas[l], fields[l], flips[l], s[l], w_rows[l, lo:hi], fields[lo:hi], update[lo:hi]))
    sweep_block = max(1, min(sweeps, _DRAW_BYTES // max(8 * reads * size, 1)))
    draws = np.empty((reads, sweep_block, size))  # (read, sweep, bit)
    accepts = draws.transpose(1, 2, 0)  # (sweep, bit, read) view

    # acceptance draws come in sweep blocks into one buffer to bound memory;
    # within each read the draw order is fixed, so blocking does not change the stream
    with np.errstate(over="ignore"):
        for block_start in range(0, sweeps, sweep_block):
            block = min(sweep_block, sweeps - block_start)
            for rng, read_draws in zip(rngs, draws):
                rng.random(out=read_draws[:block])
            for t in range(block):
                np.multiply(s, neg_betas[block_start + t], out=signed_betas)
                for acc, (signed_beta, field, flip, sign, w_span, field_span, update_span) in zip(accepts[t], rows):
                    # accept when exp(-beta*dE) beats the draw; dE <= 0 always passes.
                    # A positional output buffer costs less per call than out=.
                    np.multiply(signed_beta, field, arg)
                    np.exp(arg, arg)
                    np.less(acc, arg, flip)
                    np.multiply(sign, flip, d)
                    np.multiply(w_span, d, update_span)
                    np.add(field_span, update_span, field_span)
                np.negative(s, out=s, where=flips)
    q = np.zeros((reads, size + 1), dtype=bool)  # (read, bit) and a zero pad bit, so a 0-bit run still packs to a byte
    q[:, :size] = (s < 0.0).T

    results = []
    for (problem, params), start, stop in zip(runs, bounds, bounds[1:]):
        run_q = q[start:stop]
        if params.noise_p > 0:
            noise = np.stack([rng.random(size) for rng in rngs[start:stop]])
            run_q[:, :size] ^= noise < params.noise_p
        packed = np.packbits(run_q, axis=1)
        _, first, counts = np.unique(packed.view(f"V{packed.shape[1]}")[:, 0], return_index=True, return_counts=True)
        distinct = run_q[first, :size].astype(float)
        bit_rows = distinct.astype(np.int64).tolist()
        samples = [Sample(tuple(bits), energy(problem, row), occ) for row, bits, occ in zip(distinct, bit_rows, counts.tolist())]
        samples.sort(key=lambda sample: (sample.energy, sample.bits))
        results.append(SampleSet(samples))
    return results


def solve_sa(problem: QuboProblem, params: SamplerParams) -> SampleSet:
    """Simulated annealing of one problem: independent Metropolis single-flip reads, geometric betas."""
    return solve_sa_many([(problem, params)])[0]


def _sample_exhaustive(problem: QuboProblem, params: SamplerParams) -> SampleSet:
    return solve_exhaustive(problem)


BACKENDS = {
    "exhaustive": _sample_exhaustive,
    "sa": solve_sa,
}
