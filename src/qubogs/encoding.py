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

from .linear import LinearSystem


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
        self.scale = np.asarray(self.scale, dtype=float)
        self.offset = np.asarray(self.offset, dtype=float)
        if self.bits < 1:
            raise ValueError("bits per variable must be >= 1")
        if self.scale.shape != (self.n,) or self.offset.shape != (self.n,):
            raise ValueError(f"scale and offset must be vectors of length {self.n}")
        if np.any(self.scale <= 0):
            raise ValueError("all scales must be positive")

    @classmethod
    def uniform(cls, n: int, bits: int, scale: float, offset: float = 0.0) -> "BinaryEncoding":
        return cls(n, bits, np.full(n, float(scale)), np.full(n, float(offset)))

    @property
    def size(self) -> int:
        """Total number of binary variables."""
        return self.n * self.bits

    def lower(self) -> np.ndarray:
        return -self.offset

    def upper(self) -> np.ndarray:
        """Open upper interval ends (not representable themselves)."""
        return 2.0 * self.scale - self.offset

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


def required_bits(scale: float, accuracy: float) -> int:
    """Smallest R with interval-length / 2^R = 2c/2^R <= accuracy (at least 1)."""
    if scale <= 0 or accuracy <= 0:
        raise ValueError("scale and accuracy must be positive")
    r = max(1, math.ceil(math.log2(2.0 * scale / accuracy)))
    # guard the float log against edge-of-power-of-two rounding
    while 2.0 * scale / 2.0**r > accuracy:
        r += 1
    while r > 1 and 2.0 * scale / 2.0 ** (r - 1) <= accuracy:
        r -= 1
    return r


@dataclass
class ResourceReport:
    """Logical-qubit counts for solving directly versus in blocks."""

    full_system_qubits: int
    block_size: int
    per_block_qubits: int
    connection_reduction: float


def estimate_resources(n: int, bits: int, blocks: int) -> ResourceReport:
    """Qubit counts: n*R for one shot, ceil(n/blocks)*R per block solve.

    ``connection_reduction`` is the worst-case drop in qubit-pair couplings
    gained by block splitting, (n*R)^2 * (1 - 1/blocks^2).
    """
    if blocks < 1 or blocks > n:
        raise ValueError("block count must satisfy 1 <= blocks <= n")
    block_size = -(-n // blocks)
    return ResourceReport(
        full_system_qubits=n * bits,
        block_size=block_size,
        per_block_qubits=block_size * bits,
        connection_reduction=float(n * n * bits * bits) * (1.0 - 1.0 / (blocks * blocks)),
    )


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

    def pair_matrix(self) -> np.ndarray:
        """Symmetric matrix W with W[l, k] = W[k, l] = coefficient of q_l q_k, zero diagonal."""
        return self.quadratic


def encode(system: LinearSystem, enc: BinaryEncoding) -> QuboProblem:
    """Build the QUBO whose energies reproduce ||A x - b||^2 over representable x.

    With G = A^T A, the raw coefficients are

        a_(i,r)      = -2 * c_i * (G d + A^T b)_i * 2^(-r)
        b_(i,r)(j,s) =      c_i * c_j * G_ij     * 2^(-(r+s))

    Diagonal pairs (l, l) fold into the linear part; each off-diagonal pair
    takes twice its upper-triangular raw coefficient in both mirror positions.
    """
    if enc.n != system.n:
        raise ValueError(f"encoding covers {enc.n} variables but the system has {system.n}")
    a = system.to_dense()
    g = a.T @ a
    c = enc.scale
    weights = 2.0 ** -np.arange(enc.bits)

    raw = np.kron(g * c[:, None] * c[None, :], np.outer(weights, weights))
    # the upper triangle alone decides every pair, so rounding asymmetries of
    # A^T A and of the scale products never make W asymmetric
    upper = 2.0 * np.triu(raw, 1)
    linear = np.kron(-2.0 * c * (g @ enc.offset + a.T @ system.b), weights) + np.diag(raw)

    residual_at_origin = a @ enc.offset + system.b
    return QuboProblem(enc.size, linear, upper + upper.T, float(residual_at_origin @ residual_at_origin))
