"""Block Gauss-Seidel outer loop with pluggable block solvers.

The system splits into contiguous blocks. Each iteration sweeps the blocks in
order, solving the diagonal block against a right-hand side that uses
already-updated values for earlier blocks and previous-iteration values for
later ones. The diagonal blocks and their off-block couplings are split out
once per solve; a sweep only recomputes each block's right-hand side. A block
is solved either exactly (one dense matrix per block, rank-tested once) or by
encoding it as a QUBO, sampling with a backend, and decoding the best sample.

With a shrink factor below one, every variable's representable interval is
re-centered on its latest estimate after each sweep and its half-width decays
geometrically: iteration k works inside [x_i - c_i*g^(k-1), x_i + c_i*g^(k-1)),
which buys precision at a fixed bit count as long as the iterates keep the
solution inside the window. Decoded block solutions that saturate an interval
end are flagged as clipped rather than silently accepted.
"""

from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .encoding import BinaryEncoding, QuboProblem, decode, encode
from .linear import LinearSystem
from .reference import _singular_values, relative_error, solve_dense
from .samplers import BACKENDS, SampleSet, SamplerParams
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
    if not 1 <= blocks <= n:
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
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("shrink factor gamma must lie in (0, 1]")
        if self.tol <= 0:
            raise ValueError("residual tolerance must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
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
    if k < 1:
        raise ValueError("iteration counter k starts at 1")
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
    n = system.n
    part = partition(n, config.blocks)
    # only the right-hand sides change from sweep to sweep, so each block is split once
    splits = [(lo, hi, *_split(system, lo, hi)) for lo, hi in part.blocks]
    exact_backend = config.backend == "exact"
    if exact_backend:
        dense = [sub.to_dense() for _, _, sub, _ in splits]
        for a in dense:
            _singular_values(a)  # rank test
    else:
        backend: Backend = BACKENDS[config.backend] if isinstance(config.backend, str) else config.backend

    scale, offset = (np.full(n, v, dtype=float) for v in (config.scale, config.offset))
    enc = initial_enc = BinaryEncoding(n, config.bits, scale, offset)
    is_absolute = float(np.linalg.norm(system.b)) == 0.0
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"initial iterate must have length {n}")
    records: list[IterationRecord] = []
    converged = False
    for k in range(1, config.max_iters + 1):
        energies: list[float] = []
        clipped: list[int] = []
        for p, (lo, hi, sub, off) in enumerate(splits):
            rhs = _rhs(sub, off, x)
            if exact_backend:
                x[lo:hi] = np.linalg.solve(dense[p], rhs)
                continue
            block_enc = enc.slice(lo, hi)
            params = replace(config.sampler, seed=_derive_seed(config.sampler.seed, k, lo))
            best = backend(encode(replace(sub, b=rhs), block_enc), params).best_sample
            energies.append(best.energy)
            if _saturated_vars(best.bits, block_enc.n, block_enc.bits):
                clipped.append(p)
            x[lo:hi] = decode(best.bits, block_enc)
        r = residual(system, x)
        err = relative_error(x, exact_solution) if exact_solution is not None else None
        records.append(
            IterationRecord(
                k=k,
                x=x.copy(),
                residual=r,
                relative_error=err,
                block_energies=None if exact_backend else energies,
                clipped_blocks=clipped,
                halfwidth_max=None if exact_backend else float(enc.scale.max()),
            )
        )
        if r <= config.tol:
            converged = True
            break
        if not exact_backend and config.gamma < 1.0:
            enc = shrink_encoding(initial_enc, x, config.gamma, k + 1)
    return IterationTrace(records, converged, residual_is_absolute=is_absolute)


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
