"""Fixed-point binary encoding of linear systems as QUBO problems.

Each real unknown x_i is represented with R bits inside a half-open interval
[-d_i, 2*c_i - d_i):

    x_i = c_i * sum_{r=0}^{R-1} q_r^i * 2^(-r)  -  d_i,    q_r^i in {0, 1}

so the leading bit (r = 0) carries weight c_i and the representable values form
a uniform grid with step c_i * 2^(-(R-1)). Substituting into the least-squares
objective ||A x - b||^2 and dropping the constant ||A d + b||^2 yields a
quadratic form over the N*R bits:

    H(q) = sum_l a_l q_l + sum_{l<k} b_lk q_l q_k

whose ground state decodes to the representable vector closest to solving
A x = b in the least-squares sense. The dropped constant is retained on the
QuboProblem so absolute residuals can be recovered from sampled energies.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .linear import LinearSystem, partition, whole_number


@dataclass
class BinaryEncoding:
    """Per-variable scale c_i > 0, offset d_i, and a common bit count.

    Variable i is representable on [-offset[i], 2*scale[i] - offset[i]).
    """

    n: int
    bits: int
    scale: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        # C order: a window laid out otherwise (a broadcast one, say) can round g @ offset differently
        self.scale = np.asarray(self.scale, dtype=float, order="C")
        self.offset = np.asarray(self.offset, dtype=float, order="C")
        for name in ("n", "bits"):
            setattr(self, name, whole_number(name, getattr(self, name)))
        if self.scale.shape != (self.n,) or self.offset.shape != (self.n,):
            raise ValueError(f"scale and offset must be vectors of length {self.n}")
        if not np.all((0.0 < self.scale) & (self.scale < np.inf)):
            raise ValueError("all scales must be positive and finite")
        if not np.all(np.isfinite(self.offset)):
            raise ValueError("all offsets must be finite")

    @classmethod
    def uniform(cls, n: int, bits: int, scale: float, offset: float = 0.0) -> "BinaryEncoding":
        return cls(n, bits, np.full(n, float(scale)), np.full(n, float(offset)))

    @property
    def size(self) -> int:
        """Total number of binary variables."""
        return self.n * self.bits

    def lower(self) -> np.ndarray:
        return -self.offset

    def resolution(self) -> np.ndarray:
        """Gap between adjacent representable values, 2*c_i / 2^R."""
        return 2.0 * self.scale / 2.0**self.bits

    def slice(self, lo: int, hi: int) -> "BinaryEncoding":
        return BinaryEncoding(hi - lo, self.bits, self.scale[lo:hi], self.offset[lo:hi])


def decode(bits_values, enc: BinaryEncoding) -> np.ndarray:
    """Map a flat bitstring of length n*R back to the real vector it represents.

    Bit r of variable i sits at flat index i*R + r.
    """
    q = np.asarray(bits_values, dtype=float)
    if q.shape != (enc.size,):
        raise ValueError(f"bitstring must have length {enc.size}, got {q.shape}")
    weights = 2.0 ** -np.arange(enc.bits)
    fractions = q.reshape(enc.n, enc.bits) @ weights
    return enc.scale * fractions - enc.offset


@dataclass
class ResourceReport:
    """Logical-qubit counts for solving directly versus in blocks."""

    full_system_qubits: int
    block_size: int
    per_block_qubits: int


def estimate_resources(n: int, bits: int, blocks: int) -> ResourceReport:
    """Qubit counts: n*R for one shot, and R times the largest block of ``partition(n, blocks)`` per block solve."""
    bits, part = whole_number("bits", bits), partition(n, blocks)
    lo, hi = part.blocks[0]  # the first block is a largest
    return ResourceReport(full_system_qubits=part.n * bits, block_size=hi - lo, per_block_qubits=(hi - lo) * bits)


@dataclass
class QuboProblem:
    """Quadratic form over binary variables: linear terms plus a symmetric pair matrix.

    ``quadratic`` is the symmetric size x size matrix W whose entry W[l, k] =
    W[k, l] is the coefficient of q_l q_k, so the energy is a.q + q^T W q / 2;
    its diagonal is zero because same-variable squares fold into ``linear``
    (q^2 = q). ``offset`` is the constant dropped from the least-squares
    objective, so that energy(q) + offset = ||A decode(q) - b||^2.
    """

    size: int
    linear: np.ndarray
    quadratic: np.ndarray = field(repr=False)
    offset: float = 0.0

    def __post_init__(self):
        self.linear = np.asarray(self.linear, dtype=float)
        self.quadratic = np.asarray(self.quadratic, dtype=float)
        if self.linear.shape != (self.size,):
            raise ValueError(f"linear coefficients must have length {self.size}")
        if self.quadratic.shape != (self.size, self.size):
            raise ValueError(f"pair matrix must have shape ({self.size}, {self.size})")
        if not (np.all(np.isfinite(self.linear)) and np.all(np.isfinite(self.quadratic)) and math.isfinite(self.offset)):
            raise ValueError("coefficients must be finite")
        if not np.array_equal(self.quadratic, self.quadratic.T):
            raise ValueError("pair matrix must be symmetric")
        if np.any(np.diag(self.quadratic) != 0.0):
            raise ValueError("pair matrix must have a zero diagonal")


def encode(system: LinearSystem, enc: BinaryEncoding) -> QuboProblem:
    """Build the QUBO whose energies reproduce ||A x - b||^2 over representable x.

    With G = A^T A, the raw coefficients are

        a_(i,r)      = -2 * c_i * (G d + A^T b)_i * 2^(-r)
        b_(i,r)(j,s) =      c_i * c_j * G_ij     * 2^(-(r+s))

    Diagonal pairs (l, l) fold into the linear part; each off-diagonal pair
    takes twice its upper-triangular raw coefficient in both mirror positions.
    """
    a = system.to_dense()
    return encode_dense(a, a.T @ a, system.b, enc)


def encode_dense(a: np.ndarray, g: np.ndarray, b: np.ndarray, enc: BinaryEncoding) -> QuboProblem:
    """``encode`` of the system with dense matrix ``a``, its Gram matrix ``g = a.T @ a`` and right-hand side ``b``.

    A solver that meets one matrix under many right-hand sides and windows
    computes ``a`` and ``g`` once and passes them here.
    """
    if enc.n != len(b):
        raise ValueError(f"encoding covers {enc.n} variables but the system has {len(b)}")
    c = enc.scale
    weights = 2.0 ** -np.arange(enc.bits)

    # Kronecker products laid out by broadcasting: entry (i*R + r, j*R + s) is
    # (c_i c_j G_ij) * 2^-(r+s), the one product np.kron would form
    scaled = g * c[:, None] * c[None, :]
    raw = (scaled[:, None, :, None] * np.outer(weights, weights)[None, :, None, :]).reshape(enc.size, enc.size)
    # the upper triangle alone decides every pair, so rounding asymmetries of
    # A^T A and of the scale products never make W asymmetric
    upper = 2.0 * np.triu(raw, 1)
    linear = ((-2.0 * c * (g @ enc.offset + a.T @ b))[:, None] * weights).ravel() + np.diag(raw)

    residual_at_origin = a @ enc.offset + b
    return QuboProblem(enc.size, linear, upper + upper.T, float(residual_at_origin @ residual_at_origin))
