"""Block Gauss-Seidel outer loop with pluggable block solvers.

The system splits into contiguous blocks. Each iteration sweeps the blocks in
order, solving the diagonal block against a right-hand side that uses
already-updated values for earlier blocks and previous-iteration values for
later ones. The diagonal blocks, their dense matrices and their off-block
couplings are split out once per solve; a sweep only recomputes each block's
right-hand side. A block is solved either exactly (its inverse, rank-tested and
taken once, times b) or by encoding it as a QUBO from its matrix and cached
A^T A, sampling with a backend, and decoding the best sample.

The block solves run on a wavefront schedule (Lamport's hyperplane method):
solve (k, p) runs at step c*k + o_p, so blocks that do not couple are solved
together, across iterations and across the runs of a lockstep batch. It uses
the values a sweep in block order would, because o_q < o_p and o_p - o_q < c
for every coupled q < p (``iterate_many`` defines o_p and c). A step's index
arrays are worked out once per residue class of the step and kept until its set
of solves changes. A run that stops drops the speculative solves it started for
later iterations.

With a shrink factor below one, every variable's representable interval is
re-centered on its latest estimate after each sweep and its half-width decays
geometrically: iteration k works inside [x_i - c_i*g^(k-1), x_i + c_i*g^(k-1)),
which buys precision at a fixed bit count as long as the iterates keep the
solution inside the window. Decoded block solutions that saturate an interval
end are flagged as clipped rather than silently accepted.
"""

import bisect
import itertools
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .encoding import BinaryEncoding, QuboProblem, decode, encode_dense
from .linear import BlockPartition, LinearSystem, partition, whole_number
from .reference import _singular_values, solve_dense
from .samplers import BACKENDS, SampleSet, SamplerParams, _seed_states, _seed_words, solve_sa_many
from .trace import IterationRecord, IterationTrace

Backend = Callable[[QuboProblem, SamplerParams], SampleSet]


@dataclass
class SolveConfig:
    """Outer-loop settings: partitioning, encoding, shrink, stopping, backend."""

    blocks: int = 1
    bits: int = 3
    scale: float = 50.0
    offset: float = 0.0
    gamma: float = 1.0
    tol: float = 1e-10
    max_iters: int = 100
    backend: str | Backend = "exact"
    sampler: SamplerParams = field(default_factory=SamplerParams)

    def __post_init__(self):
        for name in ("blocks", "bits", "max_iters"):
            setattr(self, name, whole_number(name, getattr(self, name)))
        for name in ("scale", "offset", "gamma", "tol"):
            setattr(self, name, float(getattr(self, name)))
        if not (0.0 < self.scale < np.inf and np.isfinite(self.offset)):
            raise ValueError("encoding scale must be positive and finite, and its offset finite")
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
    ``np.matmul`` by the blocks' inverses (exact), one ``solve_sa_many`` call
    (SA), or one call per solve, each QUBO solve in its run's window for that
    block size, built once (once k > 1 with gamma < 1, ``shrink_encoding``'s,
    with half-width c*gamma^(k-1)). Each exact block
    size's stack is inverted once per solve, after the rank test; a block solve
    then errs by O(kappa(A_pp) eps) relative, not LU's backward-stable error,
    and the next sweep corrects it, as in iterative refinement. Step c*s + r
    solves iteration s - o_p // c of each block p of residue class r = o_p % c.
    Sorted by offset, a class's ready blocks (k >= 1) are a prefix, and each
    run's k <= max_iters a range of it. Each class keeps one plan, rebuilt only
    when those ranges change (in warm-up, when a run leaves, and in a capped
    run's last max o // c steps): per block size, the solves' flat rows in the
    iterates and in the ring, b there, their off-block entries in ``_rhs``'s
    order and (exact) their inverses as one stack. A steady step is then, per
    size group, one gather and ``np.bincount`` for the right-hand sides, bit for
    bit as ``_rhs`` computes each, the solve and two flat assignments; no solve
    of a step couples to another of that step. Each run's max o // c + 1
    iterations in flight share a ring of that depth, and a QUBO solve's best
    energy and saturation (some variable's bits all set or all clear, after
    ``decode`` has checked the sample) land in its slot beside x^(k). Iteration
    k is complete at step c*k + max o; its record copies its ring slot and takes
    ``residual``'s and ``relative_error``'s quotients from ||b|| and
    ||exact_solution||, each taken once per call. A run that has then
    converged or reached ``max_iters`` leaves, and the speculative solves it
    started for up to max o // c later iterations are dropped. A bad ``x0`` or
    ``exact_solution`` raises before any solve.
    """
    if len({(c.blocks, c.bits, c.backend, c.sampler.sweeps) for c in configs}) != 1:
        raise ValueError("lockstep runs need at least one config, all sharing blocks, bits, backend and sweeps")
    n = system.n
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    if x.shape != (n,) or not np.all(np.isfinite(x)):
        raise ValueError(f"initial iterate x0 must be a finite vector of length {n}")
    exact = None if exact_solution is None else np.asarray(exact_solution, dtype=float)
    if exact is not None and not (exact.shape == (n,) and np.all(np.isfinite(exact)) and np.linalg.norm(exact) > 0.0):
        raise ValueError(f"exact_solution must be a finite vector of length {n} with a nonzero norm")
    first = configs[0]
    part = partition(n, first.blocks)
    # only the right-hand sides change from sweep to sweep, so each block is split once
    splits = [(lo, hi, *_split(system, lo, hi)) for lo, hi in part.blocks]
    offsets, period = _wavefront(splits)
    lags = np.array(offsets) // period  # step c*s + o_p % c solves iteration s - lags[p] of block p
    # each residue class's blocks sorted by offset: the ready ones (k >= 1) are a prefix, each run's k <= max_iters a range
    order = [sorted((p for p, o in enumerate(offsets) if o % period == r), key=offsets.__getitem__) for r in range(period)]
    lag_order = [lags[ps].tolist() for ps in order]
    depth = max(offsets) // period + 1  # iterations in flight; x^(k) of run i fills ring[i, k % depth]
    dense = [sub.to_dense() for _, _, sub, _ in splits]
    sizes = np.array([hi - lo for lo, hi, _, _ in splits])
    los = np.array([lo for lo, _, _, _ in splits])
    exact_backend = first.backend == "exact"
    if exact_backend:
        for a in dense:
            _singular_values(a)  # rank test
        # each size's block inverses, stacked once in block order: block p's is inverses[sizes[p]][slot[p]]
        inverses = {size: np.linalg.inv(np.stack([a for a in dense if len(a) == size])) for size in set(sizes.tolist())}
        slot = np.array([np.count_nonzero(sizes[:p] == size) for p, size in enumerate(sizes)])
    else:
        grams = [a.T @ a for a in dense]  # only b and the window change between a block's encodings
        bases = [{size: BinaryEncoding.uniform(size, c.bits, c.scale, c.offset) for size in set(sizes.tolist())} for c in configs]
        sample = None if first.backend == "sa" else BACKENDS[first.backend] if isinstance(first.backend, str) else first.backend

    def plan(r: int, ranges) -> list[tuple]:
        """Per block size, the arrays a step uses for the solves order[r][lo:hi] of each (run, lo, hi) in ``ranges``."""
        groups = defaultdict(list)
        for p, i in sorted((p, i) for i, lo, hi in ranges for p in order[r][lo:hi]):
            groups[int(sizes[p])].append((i, p))
        steps = []
        for size, members in groups.items():
            runs, ps = (np.array(a)[:, None] for a in zip(*members))
            lag, rows = lags[ps], los[ps] + np.arange(size)
            ring_rows = (runs * depth + (np.arange(depth)[:, None, None] - lag) % depth) * n + rows
            offs = [splits[p][3] for _, p in members]  # in _rhs's order; row j of solve e is bin e*size + j
            cols = np.concatenate([i * n + c for (i, _), (_, c, _) in zip(members, offs)])
            vals = np.concatenate([v for _, _, v in offs])
            bins = np.concatenate([e * size + rw for e, (rw, _, _) in enumerate(offs)])
            stack = inverses[size][slot[ps[:, 0]]] if exact_backend else None
            steps.append(((runs[:, 0], lag[:, 0], ps[:, 0]), runs * n + rows, ring_rows, system.b[rows], cols, vals, bins, stack))
        return steps

    b_norm = float(np.linalg.norm(system.b))
    exact_norm = None if exact is None else float(np.linalg.norm(exact))
    xs = np.tile(x, (len(configs), 1))  # each block's latest value, per run
    ring = np.empty((len(configs), depth, n))
    xs_flat, ring_flat = xs.reshape(-1), ring.reshape(-1)
    energies, saturated = np.empty((len(configs), depth, len(splits))), np.empty((len(configs), depth, len(splits)), dtype=bool)
    records: list[list[IterationRecord]] = [[] for _ in configs]
    converged = [False] * len(configs)
    active = list(range(len(configs)))
    plans = [(None, [])] * period  # each class's (key, plan), rebuilt only when its key changes
    for t in itertools.count(period):
        s, r = divmod(t, period)
        # the key is each active run's range of order[r]: the blocks with 1 <= s - lag <= its max_iters
        ready = bisect.bisect_right(lag_order[r], s - 1)
        key = tuple((i, bisect.bisect_left(lag_order[r], s - configs[i].max_iters, hi=ready), ready) for i in active)
        if plans[r][0] != key:
            plans[r] = key, plan(r, key)
        for (runs, lag, ps), at, ring_rows, b_at, cols, vals, bins, stack in plans[r][1]:
            # the group's right-hand sides at once, each row bit for bit as _rhs folds it
            rhs = b_at - np.bincount(bins, vals * xs_flat[cols], minlength=b_at.size).reshape(b_at.shape)
            if exact_backend:
                values = np.matmul(stack, rhs[:, :, None])[:, :, 0]
            else:
                size, ks = b_at.shape[1], s - lag
                group = list(zip(runs.tolist(), ks.tolist(), ps.tolist()))
                pairs, windows = [], []
                # each solve's seed: the first word of SeedSequence((seed, k, lo)); k and lo are single words
                seeds = _seed_states([[*_seed_words(configs[i].sampler.seed), k, splits[p][0]] for i, k, p in group])[:, 0]
                for (i, k, p), b, seed in zip(group, rhs, seeds.tolist()):
                    config, (lo, hi), window = configs[i], splits[p][:2], bases[i][size]
                    windows.append(window if k == 1 or config.gamma == 1.0 else shrink_encoding(window, xs[i][lo:hi], config.gamma, k))
                    pairs.append((encode_dense(dense[p], grams[p], b, windows[-1]), replace(config.sampler, seed=seed)))
                best = [result.best_sample for result in (solve_sa_many(pairs) if sample is None else [sample(*pair) for pair in pairs])]
                values = [decode(q.bits, window) for q, window in zip(best, windows)]  # decode checks each sample's length
                ones = np.reshape([q.bits for q in best], (len(best), size, first.bits)).sum(axis=2)  # set bits per variable
                energies[runs, ks % depth, ps] = [q.energy for q in best]
                saturated[runs, ks % depth, ps] = np.any((ones == 0) | (ones == first.bits), axis=1)
            xs_flat[at] = ring_flat[ring_rows[s % depth]] = values
        k, rem = divmod(t - max(offsets), period)
        for i in list(active) if not rem and k >= 1 else []:
            config = configs[i]
            cell = i, k % depth
            x_k = ring[cell].copy()
            # residual and relative_error's divisions, with ||b|| and ||exact|| taken once per solve
            r = float(np.linalg.norm(system.matvec(x_k) - system.b))
            r = r if b_norm == 0.0 else r / b_norm
            err = None if exact is None else float(np.linalg.norm(x_k - exact)) / exact_norm
            if exact_backend:
                records[i].append(IterationRecord(k, x_k, r, err))
            else:  # each window of iteration k has shrink_encoding's half-width c * gamma^(k-1)
                landed = energies[cell].tolist(), np.flatnonzero(saturated[cell]).tolist(), config.scale * config.gamma ** (k - 1)
                records[i].append(IterationRecord(k, x_k, r, err, *landed))
            converged[i] = r <= config.tol
            if converged[i] or k == config.max_iters:
                active.remove(i)
        if not active:
            return [IterationTrace(rec, conv, residual_is_absolute=b_norm == 0.0) for rec, conv in zip(records, converged)]


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
    if part.n != system.n:
        raise ValueError("partition does not match the system size")
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
