"""Finite-difference assembly for the steady heat equation on a square plate.

The plate [0, L] x [0, L] is divided into ``m`` segments per side, giving grid
nodes (x_i, y_j) = (i*L/m, j*L/m) for i, j = 0..m. Edge nodes carry prescribed
temperatures; the (m-1)^2 interior nodes are unknowns. The five-point Laplacian
stencil couples each interior node to its four neighbors:

    4*T[i,j] - T[i+1,j] - T[i-1,j] - T[i,j+1] - T[i,j-1] = (boundary + sources)

Neighbor terms that fall on an edge move to the right-hand side, so the
assembled system A x = b reproduces the discrete solution exactly.
"""

import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

import numpy as np

from .linear import LinearSystem, whole_number

EDGES = ("bottom", "top", "left", "right")

# Edge profile: temperature as a function of the coordinate along the edge
# (x for bottom/top, y for left/right).
EdgeProfile = Callable[[float], float]


def boundary_temperature(edge: str, s: float, length: float) -> float:
    """Default edge temperatures: cold bottom/left, linear 0..100 C ramp on top/right.

    ``s`` is the coordinate along the edge (x on bottom/top, y on left/right).
    """
    if edge not in EDGES:
        raise ValueError(f"unknown edge {edge!r}, expected one of {EDGES}")
    if not 0.0 <= s <= length:
        raise ValueError(f"position {s} outside edge range [0, {length}]")
    if edge in ("bottom", "left"):
        return 0.0
    return 100.0 * s / length


@dataclass
class HeatProblem:
    """Square-plate steady heat problem: grid resolution, edge temperatures, point sources.

    ``sources`` lists (i, j, strength) right-hand-side contributions at interior nodes, stored as
    (int, int, float), positive strength meaning a heat source. ``boundary`` maps each edge name to a
    profile function, or is ``"zero"`` or ``"ramp"`` (``boundary_temperature`` at ``length``).
    """

    m: int
    length: float = 1.0
    boundary: Mapping[str, EdgeProfile] | str = "ramp"
    sources: list[tuple[int, int, float]] = field(default_factory=list)

    def __post_init__(self):
        self.m = whole_number("m (segments per side)", self.m, least=2)
        if not 0.0 < self.length < math.inf:
            raise ValueError("plate side length must be positive and finite")
        self.length = float(self.length)
        if isinstance(self.boundary, str):
            if self.boundary not in ("ramp", "zero"):
                raise ValueError(f"unknown boundary profile {self.boundary!r}, expected 'ramp' or 'zero'")
        elif missing := [e for e in EDGES if e not in self.boundary]:
            raise ValueError(f"boundary profiles missing for edges {missing}")
        for i, j, strength in self.sources:
            if i not in range(1, self.m) or j not in range(1, self.m):  # whole numbers, so not NaN or inf
                raise ValueError(f"source at ({i}, {j}) is not an interior node of an m={self.m} grid")
            if not math.isfinite(strength):
                raise ValueError(f"source at ({i}, {j}) has non-finite strength {strength}")
        self.sources = [(int(i), int(j), float(strength)) for i, j, strength in self.sources]

    @property
    def n(self) -> int:
        return (self.m - 1) ** 2

    @property
    def kappa(self) -> float:
        """2-norm condition number of the assembled A in closed form: cot^2(pi / 2m).

        A (4 on the diagonal, -1 per interior neighbor) does not depend on length, boundary or sources;
        its eigenvalues are 4 - 2cos(i pi/m) - 2cos(j pi/m), i, j = 1..m-1 (LeVeque 2007, section 3.4).
        """
        return 1 / math.tan(math.pi / (2 * self.m)) ** 2

    def node(self, k: int) -> float:
        return self.length * k / self.m

    def edge_value(self, edge: str, s: float) -> float:
        if self.boundary == "ramp":
            return boundary_temperature(edge, s, self.length)
        return 0.0 if self.boundary == "zero" else float(self.boundary[edge](s))

    def row_of(self, i: int, j: int) -> int:
        """Row-major interior index: i runs fastest."""
        return (j - 1) * (self.m - 1) + (i - 1)


def _interior_nodes(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid indices (i, j) of interior rows 0..(m-1)^2-1, the inverse of ``HeatProblem.row_of``."""
    k = np.arange((m - 1) ** 2)
    return k % (m - 1) + 1, k // (m - 1) + 1


def assemble_system(problem: HeatProblem) -> LinearSystem:
    """Assemble the five-point-stencil system for the interior nodes.

    Interior node (i, j) becomes row (j-1)*(m-1) + (i-1) with +4 on the
    diagonal and -1 for each interior neighbor; edge-neighbor temperatures and
    then source strengths accumulate into b.
    """
    m, nside = problem.m, problem.m - 1
    i, j = _interior_nodes(m)
    # the five stencil slots in ascending column order: below, left, center, right, above
    inside = np.column_stack([j > 1, i > 1, np.ones(problem.n, dtype=bool), i < nside, j < nside])
    rows, slot = np.nonzero(inside)  # row-major, so sorted by row, then column
    cols = rows + np.array([-nside, -1, 0, 1, nside])[slot]
    vals = np.where(slot == 2, 4.0, -1.0)
    b = np.zeros(problem.n)
    # edge by edge, so a node next to several edges adds them in stencil order;
    # each edge's m-1 nodes come in row order, which is their order along the edge
    for edge, on_edge in (("bottom", j == 1), ("left", i == 1), ("right", i == nside), ("top", j == nside)):
        b[on_edge] += [problem.edge_value(edge, problem.node(s)) for s in range(1, m)]
    for si, sj, strength in problem.sources:
        b[problem.row_of(si, sj)] += strength
    return LinearSystem(problem.n, rows, cols, vals, b)


def _dst2(v: np.ndarray) -> np.ndarray:
    """DST-I, sum_j v_j sin(pi j k / (N+1)) for k = 1..N, along both axes of a square array.

    Each axis takes -1/2 the imaginary part of the real FFT of the odd extension [0, v, 0, -reversed v].
    """
    for _ in range(2):
        zero = np.zeros((len(v), 1))
        v = -0.5 * np.fft.rfft(np.concatenate([zero, v, zero, -v[:, ::-1]], axis=1))[:, 1 : len(v) + 1].imag.T
    return v


def solve_plate(problem: HeatProblem, b) -> np.ndarray:
    """A^-1 b for the plate's assembled A by sine transform, in O(n log n).

    A's eigenvectors are the 2-D sine modes, with eigenvalues lambda_i + lambda_j, lambda_i = 2 - 2cos(i pi/m)
    = 4 sin^2(i pi/2m), the form without cancellation at small i (LeVeque 2007, section 3.4). The DST-I matrix S
    of size m-1 has S^2 = (m/2) I, so A^-1 b = (2/m)^2 S [(S B S) / (lambda_i + lambda_j)] S, B = b as a grid.
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (problem.n,):
        raise ValueError(f"right-hand side must have length {problem.n}, got {b.shape}")
    m, side = problem.m, problem.m - 1
    lam = 4.0 * np.sin(np.arange(1, m) * np.pi / (2 * m)) ** 2
    modes = _dst2(np.reshape(b, (side, side))) / (lam[:, None] + lam)
    return (2.0 / m) ** 2 * _dst2(modes).ravel()


def grid_to_field(x, problem: HeatProblem) -> np.ndarray:
    """Expand an interior solution vector to the full (m+1) x (m+1) node grid.

    Entry [i, j] holds the temperature at (x_i, y_j). Corner nodes take the
    bottom/top profile values (the default profiles agree at corners anyway).
    """
    x = np.asarray(x, dtype=float)
    m = problem.m
    if x.shape != (problem.n,):
        raise ValueError(f"solution vector must have length {problem.n}, got {x.shape}")
    field_ = np.zeros((m + 1, m + 1))
    for i in range(m + 1):
        field_[i, 0] = problem.edge_value("bottom", problem.node(i))
        field_[i, m] = problem.edge_value("top", problem.node(i))
    for j in range(1, m):
        field_[0, j] = problem.edge_value("left", problem.node(j))
        field_[m, j] = problem.edge_value("right", problem.node(j))
    field_[_interior_nodes(m)] = x
    return field_
