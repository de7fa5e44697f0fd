"""Sparse linear systems stored as row-sorted coordinate arrays, and their split into contiguous blocks."""

from dataclasses import dataclass, field

import numpy as np


def whole_number(name: str, value, least: int = 1) -> int:
    """``value`` as an int; raises ValueError unless it is a whole number >= ``least`` (so not NaN or inf)."""
    if not least <= value < np.inf or int(value) != value:
        raise ValueError(f"{name} must be an integer >= {least}")
    return int(value)


@dataclass
class LinearSystem:
    """A square system A x = b with A stored as coordinate arrays.

    ``rows``, ``cols`` and ``vals`` give the row, the column and the value of
    every stored entry, sorted by row and then by column, with no (row, col)
    pair twice. That order is also the summation order: ``np.bincount`` adds
    its weights into each bin one at a time in storage order, starting from
    0.0, so every row sum rounds exactly as a left-to-right loop over the
    row's entries would, and results do not depend on a BLAS kernel's order.

    Systems here stay small (a few hundred unknowns), so the sparse storage
    exists to keep matrix-vector products proportional to the number of
    nonzeros, not to save memory.
    """

    n: int
    rows: np.ndarray = field(repr=False)
    cols: np.ndarray = field(repr=False)
    vals: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.intp)
        self.cols = np.asarray(self.cols, dtype=np.intp)
        self.vals = np.asarray(self.vals, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if self.n < 1:
            raise ValueError("system size must be at least 1")
        if self.b.shape != (self.n,):
            raise ValueError(f"right-hand side must have length {self.n}")
        if not (self.rows.ndim == 1 and self.rows.shape == self.cols.shape == self.vals.shape):
            raise ValueError("rows, cols and vals must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(self.vals)) and np.all(np.isfinite(self.b))):
            raise ValueError("matrix entries and right-hand side must be finite")
        if self.rows.size == 0:
            return
        if min(self.rows.min(), self.cols.min()) < 0 or max(self.rows.max(), self.cols.max()) >= self.n:
            raise ValueError(f"entry index outside 0..{self.n - 1}")
        if np.any(np.diff(self.rows * self.n + self.cols) <= 0):
            raise ValueError("entries must be sorted by row, then column, without repeats")

    @classmethod
    def from_dense(cls, a, b) -> "LinearSystem":
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("coefficient matrix must be square")
        rows, cols = np.nonzero(a)  # row-major, so already sorted by row, then column
        return cls(a.shape[0], rows, cols, a[rows, cols], b)

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        a[self.rows, self.cols] = self.vals
        return a

    def matvec(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"vector must have length {self.n}")
        return np.bincount(self.rows, self.vals * x[self.cols], minlength=self.n)


@dataclass
class BlockPartition:
    """Contiguous half-open ranges covering 0..n-1 in order, without overlap; bounds are stored as ints."""

    n: int
    blocks: list[tuple[int, int]]

    def __post_init__(self):
        self.n = whole_number("n", self.n)
        expected = 0
        for lo, hi in self.blocks:
            if lo != expected or hi not in range(expected + 1, self.n + 1):  # a whole number, so not NaN or inf
                raise ValueError("blocks must be sorted, disjoint whole-number ranges that cover the index range")
            expected = int(hi)
        self.blocks = [(int(lo), int(hi)) for lo, hi in self.blocks]
        if expected != self.n:
            raise ValueError(f"blocks cover 0..{expected - 1} but the system has {self.n} unknowns")

    def __len__(self) -> int:
        return len(self.blocks)


def partition(n: int, blocks: int) -> BlockPartition:
    """Split 0..n-1 into ``blocks`` contiguous ranges, larger ranges first, so the first is a largest."""
    n, blocks = whole_number("n", n), whole_number("blocks", blocks)
    if blocks > n:
        raise ValueError(f"block count must satisfy 1 <= blocks <= {n}")
    small, big = divmod(n, blocks)
    starts = [p * small + min(p, big) for p in range(blocks + 1)]  # np.array_split's boundaries
    return BlockPartition(n, list(zip(starts, starts[1:])))
