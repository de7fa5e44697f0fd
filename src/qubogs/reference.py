"""Classical ground-truth solvers: direct elimination, condition number.

Both rest on the singular values of A (``eigvalsh`` for a symmetric matrix,
SVD otherwise): their smallest is the rank test, their ratio kappa.
"""

from dataclasses import dataclass

import numpy as np

from .linear import LinearSystem


class SingularMatrixError(ValueError):
    pass


def _singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values of a square matrix, largest first; raises if it is rank deficient.

    A symmetric matrix takes them from ``eigvalsh``, as sigma_i = |lambda_i|;
    any other takes the SVD. Both routines are backward stable, to
    O(n * eps * sigma_max) in every value. The rank test is numpy's
    ``matrix_rank`` default: a singular value at or below sigma_max * n * eps
    counts as zero.
    """
    if np.array_equal(a, a.T):
        sigma = np.sort(np.abs(np.linalg.eigvalsh(a)))[::-1]
    else:
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
    """2-norm condition number sigma_max / sigma_min from the singular values of A (``eigvalsh`` if A is symmetric)."""
    sigma = _singular_values(system.to_dense())
    sigma_max, sigma_min = float(sigma[0]), float(sigma[-1])
    return ConditionEstimate(kappa=sigma_max / sigma_min, sigma_max=sigma_max, sigma_min=sigma_min)
