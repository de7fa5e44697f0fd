"""Block Gauss-Seidel outer loop with pluggable block solvers.

The system splits into contiguous blocks. Each iteration sweeps the blocks in
order, solving the diagonal block against a right-hand side that uses
already-updated values for earlier blocks and previous-iteration values for
later ones. The diagonal blocks and their off-block couplings are split out
once per solve; a sweep only recomputes each block's right-hand side. A block
is solved either exactly (one dense matrix per block, rank-tested once) or by
encoding it as a QUBO, sampling with a backend, and decoding the best sample.

The block solves run on a wavefront schedule (Lamport's hyperplane method):
solve (k, p) runs at step c*k + o_p, so blocks that do not couple are solved
together, across iterations and across the runs of a lockstep batch. It uses
the values a sweep in block order would, because o_q < o_p and o_p - o_q < c
for every coupled q < p (``iterate_many`` defines o_p and c). A run that stops
drops the speculative solves it started for later iterations.

With a shrink factor below one, every variable's representable interval is
re-centered on its latest estimate after each sweep and its half-width decays
geometrically: iteration k works inside [x_i - c_i*g^(k-1), x_i + c_i*g^(k-1)),
which buys precision at a fixed bit count as long as the iterates keep the
solution inside the window. Decoded block solutions that saturate an interval
end are flagged as clipped rather than silently accepted.
"""

import itertools
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .encoding import BinaryEncoding, QuboProblem, decode, encode
from .linear import LinearSystem, whole_number
from .reference import _singular_values, relative_error, solve_dense
from .samplers import BACKENDS, SampleSet, SamplerParams, solve_sa_many
from .trace import IterationRecord, IterationTrace

Backend = Callable[[QuboProblem, SamplerParams], SampleSet]


@dataclass
class BlockPartition:
    """Contiguous half-open ranges covering 0..n-1 in order, without overlap."""

    n: int
    blocks: list[tuple[int, int]]

    def __post_init__(self):
        expected = 0
        for lo, hi in self.blocks:
            if lo != expected or hi <= lo:
                raise ValueError("blocks must be sorted, disjoint, and cover the index range")
            expected = hi
        if expected != self.n:
            raise ValueError(f"blocks cover 0..{expected - 1} but the system has {self.n} unknowns")

    def __len__(self) -> int:
        return len(self.blocks)


def partition(n: int, blocks: int) -> BlockPartition:
    """Split 0..n-1 into ``blocks`` contiguous ranges, larger ranges first."""
    blocks = whole_number("blocks", blocks)
    if blocks > n:
        raise ValueError(f"block count must satisfy 1 <= blocks <= {n}")
    big = n % blocks
    small_size = n // blocks
    ranges = []
    start = 0
    for p in range(blocks):
        size = small_size + 1 if p < big else small_size
        ranges.append((start, start + size))
        start += size
    return BlockPartition(n, ranges)


@dataclass
class SolveConfig:
    """Outer-loop settings: partitioning, encoding, shrink, stopping, backend."""

    blocks: int = 1
    bits: int = 3
    scale: float | np.ndarray = 50.0
    offset: float | np.ndarray = 0.0
    gamma: float = 1.0
    tol: float = 1e-10
    max_iters: int = 100
    backend: str | Backend = "exact"
    sampler: SamplerParams = field(default_factory=SamplerParams)

    def __post_init__(self):
        for name in ("blocks", "bits", "max_iters"):
            setattr(self, name, whole_number(name, getattr(self, name)))
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("shrink factor gamma must lie in (0, 1]")
        if not 0.0 < self.tol < np.inf:
            raise ValueError("residual tolerance must be finite and positive")
        if isinstance(self.backend, str) and self.backend != "exact" and self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}; expected 'exact', one of {sorted(BACKENDS)}, or a callable")


def residual(system: LinearSystem, x) -> float:
    """Normalized residual ||A x - b|| / ||b|| (absolute when b = 0)."""
    r = float(np.linalg.norm(system.matvec(x) - system.b))
    b_norm = float(np.linalg.norm(system.b))
    return r if b_norm == 0.0 else r / b_norm


def shrink_encoding(initial: BinaryEncoding, x_center, gamma: float, k: int) -> BinaryEncoding:
    """Interval for iteration k: centered on x_center with half-width c_i * gamma^(k-1).

    ``initial.scale`` supplies the unshrunk half-widths c_i; the returned
    encoding represents [x_center_i - h_i, x_center_i + h_i) with h_i the
    decayed half-width.
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError("shrink factor gamma must lie in (0, 1]")
    k = whole_number("k", k)
    x_center = np.asarray(x_center, dtype=float)
    half = initial.scale * gamma ** (k - 1)
    return BinaryEncoding(initial.n, initial.bits, half, half - x_center)


def _split(system: LinearSystem, lo: int, hi: int) -> tuple[LinearSystem, tuple[np.ndarray, ...]]:
    """Diagonal block lo:hi with right-hand side b[lo:hi], and its off-block (row - lo, col, value) entries."""
    start, stop = np.searchsorted(system.rows, (lo, hi))
    rows, cols, vals = system.rows[start:stop] - lo, system.cols[start:stop], system.vals[start:stop]
    inside = (lo <= cols) & (cols < hi)
    off = ~inside
    sub = LinearSystem(hi - lo, rows[inside], cols[inside] - lo, vals[inside], system.b[lo:hi])
    return sub, (rows[off], cols[off], vals[off])


def _rhs(sub: LinearSystem, off: tuple[np.ndarray, ...], x: np.ndarray) -> np.ndarray:
    """The block's right-hand side with the off-block couplings at x folded in."""
    rows, cols, vals = off
    return sub.b - np.bincount(rows, vals * x[cols], minlength=sub.n)


BlockSolver = Callable[[LinearSystem, int, int], np.ndarray]


def gs_sweep(system: LinearSystem, part: BlockPartition, x_prev, block_solver: BlockSolver) -> np.ndarray:
    """One block Gauss-Seidel sweep: solve blocks in order against the freshest values."""
    if part.n != system.n:
        raise ValueError("partition does not match the system size")
    x = np.array(x_prev, dtype=float)
    if x.shape != (system.n,):
        raise ValueError(f"previous iterate must have length {system.n}")
    for lo, hi in part.blocks:
        sub, off = _split(system, lo, hi)
        x[lo:hi] = block_solver(replace(sub, b=_rhs(sub, off, x)), lo, hi)
    return x


def _derive_seed(master: int, k: int, block: int) -> int:
    return int(np.random.SeedSequence((master, k, block)).generate_state(1, dtype=np.uint64)[0])


def _saturated_vars(bits: tuple[int, ...], nvars: int, bits_per_var: int) -> bool:
    q = np.asarray(bits).reshape(nvars, bits_per_var)
    per_var = q.sum(axis=1)
    return bool(np.any(per_var == 0) or np.any(per_var == bits_per_var))


def iterate(system: LinearSystem, config: SolveConfig, exact_solution=None, x0=None) -> IterationTrace:
    """Run block Gauss-Seidel until the normalized residual meets ``config.tol``.

    Starts from x = 0 unless ``x0`` is given. QUBO backends re-encode each
    block per solve; with gamma < 1 the encoding intervals re-center on the
    newest iterate after every sweep. Non-convergence is reported through the
    trace, not raised.
    """
    return iterate_many(system, [config], exact_solution, x0)[0]


def classical_gauss_seidel(
    system: LinearSystem, tol: float = 1e-10, max_iters: int = 1000, exact_solution=None
) -> IterationTrace:
    """Element-wise Gauss-Seidel from x = 0: block Gauss-Seidel with one-unknown blocks.

    A zero diagonal entry fails the 1x1 rank test with SingularMatrixError.
    """
    return iterate(system, SolveConfig(blocks=system.n, tol=tol, max_iters=max_iters, backend="exact"), exact_solution)


def _wavefront(splits) -> tuple[list[int], int]:
    """Step offsets o_p and period c of the wavefront schedule that ``iterate_many`` runs."""
    his = [hi for _, hi, _, _ in splits]
    coupled = np.zeros((len(his), len(his)), dtype=bool)
    for p, (_, _, _, (_, cols, _)) in enumerate(splits):
        coupled[p, np.searchsorted(his, cols, side="right")] = True
    coupled |= coupled.T
    offsets: list[int] = []
    for p in range(len(his)):
        offsets.append(1 + max((offsets[q] for q in np.flatnonzero(coupled[p, :p])), default=-1))
    return offsets, 1 + int(np.abs(np.subtract.outer(offsets, offsets))[coupled].max(initial=0))


def iterate_many(system: LinearSystem, configs: list[SolveConfig], exact_solution=None, x0=None) -> list[IterationTrace]:
    """Run ``iterate`` for every config in lockstep; each trace equals that config's own run.

    The configs must share blocks, bits, backend and sweeps. Blocks p and q
    couple when either has an off-block entry in the other's columns. Offset
    o_p is 1 + max o_q over coupled q < p (0 without one), the period c is
    1 + max |o_p - o_q| over coupled pairs (1 without one), and solve (k, p) of
    every run runs at step c*k + o_p. As o_q < o_p and o_p - o_q < c for coupled
    q < p, it sees x_q^(k) before it and x_q^(k-1) after it, as a sweep does.
    Each step's solves go to the backend grouped by block size: one stacked
    ``np.linalg.solve`` (exact), one ``solve_sa_many`` call (SA), or one call
    per solve. Iteration k is complete at step c*k + max o; a run that has then
    converged or reached ``max_iters`` leaves, and the speculative solves it
    started for up to max o // c later iterations are dropped.
    """
    if len({(c.blocks, c.bits, c.backend, c.sampler.sweeps) for c in configs}) != 1:
        raise ValueError("lockstep runs need at least one config, all sharing blocks, bits, backend and sweeps")
    n = system.n
    first = configs[0]
    part = partition(n, first.blocks)
    # only the right-hand sides change from sweep to sweep, so each block is split once
    splits = [(lo, hi, *_split(system, lo, hi)) for lo, hi in part.blocks]
    offsets, period = _wavefront(splits)
    exact_backend = first.backend == "exact"
    if exact_backend:
        dense = [sub.to_dense() for _, _, sub, _ in splits]
        for a in dense:
            _singular_values(a)  # rank test
    else:
        backend: Backend = BACKENDS[first.backend] if isinstance(first.backend, str) else first.backend

    is_absolute = float(np.linalg.norm(system.b)) == 0.0
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"initial iterate must have length {n}")
    xs = [x.copy() for _ in configs]  # each block's latest value, per run
    initial = [BinaryEncoding(n, c.bits, *(np.full(n, v, dtype=float) for v in (c.scale, c.offset))) for c in configs]
    # (run, k) -> x^(k), block energies and clipped blocks, filled in as iteration k's solves land
    pending = defaultdict(lambda: (np.empty(n), [None] * len(splits), []))
    records: list[list[IterationRecord]] = [[] for _ in configs]
    converged = [False] * len(configs)
    active = list(range(len(configs)))
    for t in itertools.count(period):
        groups: dict[int, list[tuple[int, int, int]]] = {}
        for (p, o), i in itertools.product(enumerate(offsets), active):
            k, rem = divmod(t - o, period)
            if not rem and 1 <= k <= configs[i].max_iters:
                groups.setdefault(splits[p][1] - splits[p][0], []).append((i, k, p))
        for group in groups.values():
            rhs = [_rhs(*splits[p][2:], xs[i]) for i, _, p in group]
            if exact_backend:
                values = np.linalg.solve(np.stack([dense[p] for _, _, p in group]), np.stack(rhs)[:, :, None])[:, :, 0]
                bests = windows = [None] * len(group)
            else:
                pairs, windows = [], []
                for (i, k, p), b in zip(group, rhs):
                    lo, hi, sub, _ = splits[p]
                    config, window = configs[i], initial[i].slice(lo, hi)
                    windows.append(window if config.gamma == 1.0 or k == 1 else shrink_encoding(window, xs[i][lo:hi], config.gamma, k))
                    pairs.append((encode(replace(sub, b=b), windows[-1]), replace(config.sampler, seed=_derive_seed(config.sampler.seed, k, lo))))
                results = solve_sa_many(pairs) if first.backend == "sa" else [backend(*pair) for pair in pairs]
                bests = [result.best_sample for result in results]
                values = [decode(best.bits, window) for best, window in zip(bests, windows)]
            for (i, k, p), value, best, window in zip(group, values, bests, windows):
                lo, hi = splits[p][:2]
                x_k, energies, clipped = pending[i, k]
                xs[i][lo:hi] = x_k[lo:hi] = value
                if best is not None:
                    energies[p] = best.energy
                    if _saturated_vars(best.bits, window.n, window.bits):
                        clipped.append(p)
        k, rem = divmod(t - max(offsets), period)
        for i in list(active) if not rem and k >= 1 else []:
            config = configs[i]
            x_k, energies, clipped = pending.pop((i, k))
            r = residual(system, x_k)
            err = relative_error(x_k, exact_solution) if exact_solution is not None else None
            halfwidth = None if exact_backend else float((initial[i].scale * config.gamma ** (k - 1)).max())
            records[i].append(IterationRecord(k, x_k, r, err, None if exact_backend else energies, sorted(clipped), halfwidth))
            converged[i] = r <= config.tol
            if converged[i] or k == config.max_iters:
                active.remove(i)
        if not active:
            return [IterationTrace(rec, conv, residual_is_absolute=is_absolute) for rec, conv in zip(records, converged)]


@dataclass
class ConvergenceReport:
    """Operator norms of the two-block error maps and the sufficient-condition verdict.

    ``norm_first_block`` bounds the per-iteration contraction of the first
    block's error (operator A11^-1 A12 A22^-1 A21); ``norm_second_block`` the
    second's (A22^-1 A21 A11^-1 A12). Both below one guarantees convergence.
    """

    norm_first_block: float
    norm_second_block: float
    sufficient: bool


def check_convergence_condition(system: LinearSystem, part: BlockPartition) -> ConvergenceReport:
    """Evaluate the two-block sufficient convergence condition for a split system."""
    if len(part.blocks) != 2:
        raise ValueError("the convergence check applies to a two-block partition")
    a = system.to_dense()
    (lo1, hi1), (lo2, hi2) = part.blocks
    a11 = a[lo1:hi1, lo1:hi1]
    a12 = a[lo1:hi1, lo2:hi2]
    a21 = a[lo2:hi2, lo1:hi1]
    a22 = a[lo2:hi2, lo2:hi2]
    inv11_12 = solve_dense(a11, a12)
    inv22_21 = solve_dense(a22, a21)
    first = inv11_12 @ inv22_21
    second = inv22_21 @ inv11_12
    norm1 = float(np.linalg.norm(first, 2))
    norm2 = float(np.linalg.norm(second, 2))
    return ConvergenceReport(norm_first_block=norm1, norm_second_block=norm2, sufficient=norm1 < 1.0 and norm2 < 1.0)
