"""QUBO minimization backends standing in for annealing hardware.

Two built-in backends share the sampler interface
``sample(problem, params) -> SampleSet``: an exhaustive scan (exact, for small
problems) and seeded single-spin-flip simulated annealing. Anything callable
with that signature can serve as a backend for the block solver, which is the
attachment point for real annealer clients.
"""

from dataclasses import dataclass

import numpy as np

from .encoding import QuboProblem

EXHAUSTIVE_LIMIT = 24  # 2^24 states is still enumerable in seconds
_CHUNK = 1 << 18


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
            value = getattr(self, name)
            if not 1 <= value < np.inf or int(value) != value:
                raise ValueError(f"{name} must be an integer >= 1")
            setattr(self, name, int(value))
        if (self.beta_initial is None) != (self.beta_final is None):
            raise ValueError("set both beta endpoints or neither")
        if self.beta_initial is not None and not 0.0 < self.beta_initial <= self.beta_final < np.inf:
            raise ValueError("beta schedule requires finite beta_final >= beta_initial > 0")
        if not 0.0 <= self.noise_p < 1.0:
            raise ValueError("noise_p must lie in [0, 1)")
        if int(self.seed) != self.seed or self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


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


def solve_exhaustive(problem: QuboProblem) -> SampleSet:
    """Scan every bitstring and return the global minimum (deterministic).

    Ties resolve to the lexicographically smallest bitstring. Limited to
    ``EXHAUSTIVE_LIMIT`` binary variables.
    """
    size = problem.size
    if size > EXHAUSTIVE_LIMIT:
        raise ValueError(f"problem has {size} binary variables, exhaustive limit is {EXHAUSTIVE_LIMIT}")
    w = problem.pair_matrix()
    best_energy = np.inf
    best_state = 0
    total = 1 << size
    for start in range(0, total, _CHUNK):
        states = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        bmat = _bit_matrix(states, size)
        energies = bmat @ problem.linear + 0.5 * np.einsum("si,si->s", bmat @ w, bmat)
        i = int(np.argmin(energies))
        if energies[i] < best_energy:
            best_energy = float(energies[i])
            best_state = int(states[i])
    bits = tuple(int(b) for b in _bit_matrix(np.array([best_state]), size)[0])
    # re-evaluate the winner alone so its energy does not depend on the chunking
    return SampleSet([Sample(bits, energy(problem, bits), 1)])


_SWEEP_BLOCK = 128


def solve_sa(problem: QuboProblem, params: SamplerParams) -> SampleSet:
    """Simulated annealing: independent Metropolis single-flip reads, geometric betas.

    Every read owns the random stream seeded by (master seed, read index), so
    the result is a pure function of (problem, params) no matter how reads are
    scheduled. Duplicate final bitstrings aggregate into one sample with
    summed occurrences.
    """
    size = problem.size
    beta_lo, beta_hi = (params.beta_initial, params.beta_final)
    if beta_lo is None:
        beta_lo, beta_hi = default_beta_range(problem)
    if params.sweeps == 1:
        betas = np.array([beta_lo])
    else:
        betas = beta_lo * (beta_hi / beta_lo) ** (np.arange(params.sweeps) / (params.sweeps - 1))

    w = problem.pair_matrix()
    a = problem.linear
    rngs = [np.random.default_rng((params.seed, read)) for read in range(params.num_reads)]
    q = np.stack([rng.integers(0, 2, size=size).astype(float) for rng in rngs])
    fields = a[None, :] + q @ w  # per-bit flip drive, maintained incrementally

    # acceptance draws come in sweep blocks to bound memory; within each read
    # the draw order is fixed, so blocking does not change the stream
    for block_start in range(0, params.sweeps, _SWEEP_BLOCK):
        block = min(_SWEEP_BLOCK, params.sweeps - block_start)
        accepts = np.stack([rng.random((block, size)) for rng in rngs])
        for t in range(block):
            beta = betas[block_start + t]
            acc_t = accepts[:, t, :]
            for l in range(size):
                # accept when exp(-beta*dE) beats the draw; dE <= 0 always passes.
                # Reads that keep their bit add +-0.0, which changes no comparison.
                sign = 1.0 - 2.0 * q[:, l]
                delta = sign * fields[:, l]
                flip = acc_t[:, l] < np.exp(np.minimum(-beta * delta, 50.0))
                d = np.where(flip, sign, 0.0)
                q[:, l] += d
                fields += d[:, None] * w[l]

    if params.noise_p > 0:
        noise = np.stack([rng.random(size) for rng in rngs])
        q = np.where(noise < params.noise_p, 1.0 - q, q)

    distinct, counts = np.unique(q, axis=0, return_counts=True)
    samples = [Sample(tuple(int(b) for b in row), energy(problem, row), int(occ)) for row, occ in zip(distinct, counts)]
    samples.sort(key=lambda s: (s.energy, s.bits))
    return SampleSet(samples)


def _sample_exhaustive(problem: QuboProblem, params: SamplerParams) -> SampleSet:
    return solve_exhaustive(problem)


BACKENDS = {
    "exhaustive": _sample_exhaustive,
    "sa": solve_sa,
}
