"""Classical ground-truth solvers: direct elimination, point Gauss-Seidel, condition number."""

from dataclasses import dataclass

import numpy as np

from .linear import LinearSystem, whole_number
from .trace import IterationRecord, IterationTrace


class SingularMatrixError(ValueError):
    pass


def _singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values of a square matrix, largest first; raises if it is rank deficient.

    The rank test is numpy's ``matrix_rank`` default: a singular value at or
    below sigma_max * n * eps counts as zero.
    """
    sigma = np.linalg.svd(a, compute_uv=False)
    if sigma[-1] <= sigma[0] * a.shape[0] * np.finfo(float).eps:
        raise SingularMatrixError("matrix is singular to working precision")
    return sigma


def solve_dense(a, b) -> np.ndarray:
    """Dense direct solve (LAPACK); raises SingularMatrixError on rank deficiency."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    _singular_values(a)
    return np.linalg.solve(a, b)


def direct_solve(system: LinearSystem) -> np.ndarray:
    """Exact solution of the system (dense elimination; raises SingularMatrixError)."""
    return solve_dense(system.to_dense(), system.b)


def classical_gauss_seidel(
    system: LinearSystem,
    tol: float = 1e-10,
    max_iters: int = 1000,
    exact_solution=None,
) -> IterationTrace:
    """Element-wise Gauss-Seidel from x = 0, tracing residual (and error) per sweep."""
    if not 0.0 < tol < np.inf:
        raise ValueError("tolerance must be finite and positive")
    max_iters = whole_number("max_iters", max_iters)
    diag = system.diagonal()
    if np.any(diag == 0.0):
        raise ValueError("Gauss-Seidel requires nonzero diagonal entries")
    b = system.b
    b_norm = float(np.linalg.norm(b))
    is_absolute = b_norm == 0.0
    denom = 1.0 if is_absolute else b_norm
    starts = np.searchsorted(system.rows, np.arange(system.n + 1)).tolist()  # row i: entries starts[i]:starts[i+1]
    cols, vals = system.cols.tolist(), system.vals.tolist()
    x = np.zeros(system.n)
    records = []
    converged = False
    for k in range(1, max_iters + 1):
        for i in range(system.n):
            s = 0.0
            for e in range(starts[i], starts[i + 1]):
                if cols[e] != i:
                    s += vals[e] * x[cols[e]]
            x[i] = (b[i] - s) / diag[i]
        r = float(np.linalg.norm(system.matvec(x) - b)) / denom
        err = None
        if exact_solution is not None:
            err = relative_error(x, exact_solution)
        records.append(IterationRecord(k=k, x=x.copy(), residual=r, relative_error=err))
        if r <= tol:
            converged = True
            break
    return IterationTrace(records, converged, residual_is_absolute=is_absolute)


def relative_error(x, x_exact) -> float:
    """||x - x_exact|| / ||x_exact|| in the Euclidean norm."""
    x = np.asarray(x, dtype=float)
    x_exact = np.asarray(x_exact, dtype=float)
    denom = float(np.linalg.norm(x_exact))
    if denom == 0.0:
        raise ValueError("exact solution has zero norm, relative error undefined")
    return float(np.linalg.norm(x - x_exact)) / denom


@dataclass
class ConditionEstimate:
    kappa: float
    sigma_max: float
    sigma_min: float


def condition_number(system: LinearSystem) -> ConditionEstimate:
    """2-norm condition number sigma_max / sigma_min from the singular values of A."""
    sigma = _singular_values(system.to_dense())
    sigma_max, sigma_min = float(sigma[0]), float(sigma[-1])
    return ConditionEstimate(kappa=sigma_max / sigma_min, sigma_max=sigma_max, sigma_min=sigma_min)
