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
        if not 0.0 <= self.noise_p < 1.0:
            raise ValueError("noise_p must lie in [0, 1)")
        if not 0 <= self.seed < np.inf or int(self.seed) != self.seed:
            raise ValueError("seed must be a nonnegative integer")
        self.seed = int(self.seed)


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
    largest = mags.max() if mags.size else 0.0
    nonzero = mags[mags > 0]
    if largest == 0.0 or nonzero.size == 0:
        return 0.1, 10.0
    return 0.1 / largest, 10.0 / float(nonzero.min())


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


def solve_exhaustive(problem: QuboProblem) -> SampleSet:
    """Scan every bitstring and return the global minimum (deterministic).

    Ties resolve to the lexicographically smallest bitstring. Limited to
    ``EXHAUSTIVE_LIMIT`` binary variables.
    """
    size = problem.size
    if size > EXHAUSTIVE_LIMIT:
        raise ValueError(f"problem has {size} binary variables, exhaustive limit is {EXHAUSTIVE_LIMIT}")
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


_SWEEP_BLOCK = 16


def solve_sa_many(runs: list[tuple[QuboProblem, SamplerParams]]) -> list[SampleSet]:
    """Simulated annealing on several (problem, params) runs of one size and sweep count at once.

    The reads of all runs stack into one array and anneal in lockstep; each
    read follows its own run's geometric beta schedule and pair matrix. Every
    read owns the random stream seeded by (its run's seed, read index), so a
    run's result is a pure function of its (problem, params), whatever else
    shares the call. Duplicate final bitstrings of a run aggregate into one
    sample with summed occurrences.

    The kernel keeps spins ``s = 1 - 2q`` rather than bits, stored bits-major:
    ``s``, the fields and the pair rows are ``(bit, read)`` and
    ``(bit, j, read)`` arrays, so each per-bit step works on contiguous rows of
    preallocated buffers; the draws fill one ``(read, sweep, bit)`` buffer per
    sweep block and are read through its ``(sweep, bit, read)`` view. It is
    exact against a per-read Metropolis loop: multiplying by +-1 is exact, so
    ``(s * -beta) * field`` rounds as ``-beta * (s * field)`` does, and a
    sweep's signs are flipped once at its end because bit l's sign is read
    only on bit l's own turn. A read that keeps its bit adds a zero of either
    sign to the fields, which changes no nonzero sum. ``exp`` may overflow to
    inf only where ``-beta * dE > 709``, a move accepted whatever the draw.
    """
    size, sweeps = runs[0][0].size, runs[0][1].sweeps
    if any(problem.size != size or params.sweeps != sweeps for problem, params in runs):
        raise ValueError("batched annealing runs must share problem size and sweep count")
    rngs, q, fields, betas, w_rows = [], [], [], [], []
    for problem, params in runs:
        run_rngs = [np.random.default_rng((params.seed, read)) for read in range(params.num_reads)]
        run_q = np.stack([rng.integers(0, 2, size=size).astype(float) for rng in run_rngs])
        w = problem.quadratic
        rngs += run_rngs
        q.append(run_q)
        # per-bit flip drive, maintained incrementally; one matmul per run rounds as a lone run does
        fields.append((problem.linear[None, :] + run_q @ w).T)
        beta_lo, beta_hi = (params.beta_initial, params.beta_final)
        if beta_lo is None:
            beta_lo, beta_hi = default_beta_range(problem)
        schedule = beta_lo * (beta_hi / beta_lo) ** (np.arange(sweeps) / max(sweeps - 1, 1))
        betas.append(np.broadcast_to(schedule[:, None], (sweeps, params.num_reads)))
        w_rows.append(np.broadcast_to(w[:, :, None], (size, size, params.num_reads)))
    s = 1.0 - 2.0 * np.concatenate(q, axis=0).T  # (bit, read)
    fields = np.concatenate(fields, axis=1)
    neg_betas = -np.concatenate(betas, axis=1)  # (sweep, read)
    w_rows = np.concatenate(w_rows, axis=2)  # w_rows[l] holds row l of each read's pair matrix
    signed_betas, flips = np.empty_like(s), np.empty(s.shape, dtype=bool)
    arg, d, update = np.empty(len(rngs)), np.empty(len(rngs)), np.empty_like(fields)
    rows = list(zip(signed_betas, fields, flips, s, w_rows))
    draws = np.empty((len(rngs), _SWEEP_BLOCK, size))  # (read, sweep, bit)
    accepts = draws.transpose(1, 2, 0)  # (sweep, bit, read) view

    # acceptance draws come in sweep blocks into one buffer to bound memory;
    # within each read the draw order is fixed, so blocking does not change the stream
    with np.errstate(over="ignore"):
        for block_start in range(0, sweeps, _SWEEP_BLOCK):
            block = min(_SWEEP_BLOCK, sweeps - block_start)
            for rng, read_draws in zip(rngs, draws):
                rng.random(out=read_draws[:block])
            for t in range(block):
                np.multiply(s, neg_betas[block_start + t], out=signed_betas)
                for acc, (signed_beta, field, flip, sign, w_row) in zip(accepts[t], rows):
                    # accept when exp(-beta*dE) beats the draw; dE <= 0 always passes.
                    # A positional output buffer costs less per call than out=.
                    np.multiply(signed_beta, field, arg)
                    np.exp(arg, arg)
                    np.less(acc, arg, flip)
                    np.multiply(sign, flip, d)
                    np.multiply(w_row, d, update)
                    np.add(fields, update, fields)
                np.negative(s, out=s, where=flips)
    q = ((1.0 - s) / 2.0).T

    results = []
    stop = 0
    for problem, params in runs:
        start, stop = stop, stop + params.num_reads
        run_q = q[start:stop]
        if params.noise_p > 0:
            noise = np.stack([rng.random(size) for rng in rngs[start:stop]])
            run_q = np.where(noise < params.noise_p, 1.0 - run_q, run_q)
        distinct, counts = np.unique(run_q, axis=0, return_counts=True)
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
