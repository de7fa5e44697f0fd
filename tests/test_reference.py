import numpy as np
import pytest
from numpy.testing import assert_allclose

from hypothesis import given, settings
from hypothesis import strategies as st
from qubogs.blocksolve import classical_gauss_seidel
from qubogs.heatgrid import HeatProblem, assemble_system
from qubogs.linear import LinearSystem
from qubogs.reference import (
    SingularMatrixError,
    _singular_values,
    condition_number,
    direct_solve,
    relative_error,
    solve_dense,
)


def test_direct_solve_identity():
    system = LinearSystem.from_dense(np.eye(4), [1.0, -2.0, 3.5, 0.0])
    assert_allclose(direct_solve(system), system.b)


def test_direct_solve_hand_case(demo_2x2):
    system, exact = demo_2x2
    assert_allclose(direct_solve(system), exact, atol=1e-14)


def test_direct_solve_residual_bound(heat_demo):
    _, system, exact = heat_demo
    r = np.linalg.norm(system.matvec(exact) - system.b)
    assert r <= 1e-10 * np.linalg.norm(system.b)


def test_direct_solve_needs_pivoting():
    # zero leading entry forces a row swap
    system = LinearSystem.from_dense([[0.0, 1.0], [1.0, 0.0]], [5.0, 7.0])
    assert_allclose(direct_solve(system), [7.0, 5.0])


def test_direct_solve_singular():
    with pytest.raises(SingularMatrixError):
        direct_solve(LinearSystem.from_dense([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0]))


def test_direct_solve_nearly_singular():
    # LAPACK alone would return entries near +-9e14 here
    with pytest.raises(SingularMatrixError):
        direct_solve(LinearSystem.from_dense([[1.0, 1.0], [1.0, 1.0 + 1e-15]], [1.0, 2.0]))


def test_solve_dense_rejects_nonsquare():
    with pytest.raises(ValueError):
        solve_dense(np.ones((2, 3)), np.ones(2))


def test_direct_solve_random_against_numpy():
    rng = np.random.default_rng(23)
    for _ in range(10):
        a = rng.uniform(-1, 1, (8, 8)) + 4 * np.eye(8)
        b = rng.uniform(-1, 1, 8)
        assert_allclose(direct_solve(LinearSystem.from_dense(a, b)), np.linalg.solve(a, b), atol=1e-11)


def test_classical_gs_diagonal_converges_immediately():
    system = LinearSystem.from_dense(np.diag([2.0, 5.0]), [4.0, 10.0])
    trace = classical_gauss_seidel(system, tol=1e-12, max_iters=10)
    assert trace.converged and len(trace) == 1
    assert_allclose(trace.final_x, [2.0, 2.0])


def test_classical_gs_first_iterate(demo_2x2):
    system, _ = demo_2x2
    trace = classical_gauss_seidel(system, tol=1e-15, max_iters=1)
    assert_allclose(trace.records[0].x, [1.5, 0.75])


def test_classical_gs_heat_convergence(heat_demo):
    _, system, exact = heat_demo
    trace = classical_gauss_seidel(system, tol=1e-10, max_iters=400, exact_solution=exact)
    assert trace.converged
    assert len(trace) <= 400
    assert np.all(np.diff(trace.residuals) <= 0)


def test_classical_gs_validation(demo_2x2):
    system, _ = demo_2x2
    # a NaN tolerance is never met, so it would run every iteration and report no error
    for tol in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="tolerance"):
            classical_gauss_seidel(system, tol=tol, max_iters=30)
    for max_iters in (0, 2.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="max_iters"):
            classical_gauss_seidel(system, max_iters=max_iters)
    assert len(classical_gauss_seidel(system, tol=1e-15, max_iters=3.0)) == 3


def test_classical_gs_zero_diagonal():
    with pytest.raises(ValueError):
        classical_gauss_seidel(LinearSystem.from_dense([[0.0, 1.0], [1.0, 1.0]], [1.0, 1.0]))


def test_relative_error_examples():
    x = np.array([3.0, 4.0])
    assert relative_error(x, x) == 0.0
    assert relative_error(np.zeros(2), x) == 1.0
    assert relative_error(1.1 * x, x) == pytest.approx(0.1, abs=1e-12)
    with pytest.raises(ValueError):
        relative_error(x, np.zeros(2))


def test_condition_identity():
    est = condition_number(LinearSystem.from_dense(np.eye(5), np.ones(5)))
    assert est.kappa == pytest.approx(1.0, rel=0.01)


def test_condition_diagonal_ratio():
    est = condition_number(LinearSystem.from_dense(np.diag([1.0, 10.0]), np.ones(2)))
    assert est.kappa == pytest.approx(10.0, rel=0.01)


def test_condition_matches_svd_oracle(heat_demo):
    _, system, _ = heat_demo
    est = condition_number(system)
    sv = np.linalg.svd(system.to_dense(), compute_uv=False)
    assert est.kappa == pytest.approx(sv[0] / sv[-1], rel=0.01)


def test_condition_scale_invariant():
    rng = np.random.default_rng(9)
    a = rng.uniform(-1, 1, (5, 5)) + 3 * np.eye(5)
    k1 = condition_number(LinearSystem.from_dense(a, np.ones(5))).kappa
    k2 = condition_number(LinearSystem.from_dense(7.5 * a, np.ones(5))).kappa
    assert k2 == pytest.approx(k1, rel=0.01)


def test_condition_singular():
    with pytest.raises(SingularMatrixError):
        condition_number(LinearSystem.from_dense([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0]))


def test_condition_scalar_system():
    est = condition_number(LinearSystem.from_dense([[-3.5]], [1.0]))
    assert est.kappa == pytest.approx(1.0, rel=1e-9)
    assert est.sigma_max == pytest.approx(3.5, rel=1e-9)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
    shift=st.sampled_from([0.0, 3.0, -3.0]),  # indefinite, or strictly diagonally dominant: positive or negative definite
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    hole=st.none() | st.integers(0, 29),
)
def test_symmetric_singular_values_match_svd(n, seed, shift, scale, hole):
    b = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, n))
    a = scale * (b + b.T + shift * n * np.eye(n))  # exactly symmetric: b_ij + b_ji == b_ji + b_ij
    if hole is not None:
        a[hole % n, :] = a[:, hole % n] = 0.0
        with pytest.raises(SingularMatrixError):
            _singular_values(a)
        return
    expected = np.linalg.svd(a, compute_uv=False)
    assert_allclose(_singular_values(a), expected, rtol=0.0, atol=4 * n * np.finfo(float).eps * expected[0])


def test_plate_condition_matches_closed_form():
    # the 5-point plate's eigenvalues are 4 - 2cos(j pi/m) - 2cos(k pi/m), up to one common factor
    m = 30
    c = np.cos(np.pi / m)
    assert condition_number(assemble_system(HeatProblem(m))).kappa == pytest.approx((1 + c) / (1 - c), rel=1e-11)
    # HeatProblem.kappa against cot^2(pi / 2m), evaluated to 19 digits
    exact = {4: 5.828427124746190098, 10: 39.86345818906140097, 30: 364.0897772957675256, 100: 4052.180695476829122}
    for m, kappa in exact.items():
        assert HeatProblem(m).kappa == pytest.approx(kappa, rel=1e-15, abs=0.0), m
    # and against eigvalsh of the assembled plate, within its n * eps * kappa accuracy
    for m in range(2, 41):
        problem = HeatProblem(m)
        bound = problem.n * np.finfo(float).eps * problem.kappa
        assert condition_number(assemble_system(problem)).kappa == pytest.approx(problem.kappa, rel=bound, abs=0.0), m


def test_nonsymmetric_input_takes_the_svd(singular_value_calls):
    a = np.array([[2.0, 1.0], [0.0, 3.0]])
    sigma = _singular_values(a)
    # sigma_max * sigma_min = |det A| and sigma_max^2 + sigma_min^2 = ||A||_F^2
    assert_allclose([sigma[0] * sigma[1], sigma @ sigma], [6.0, 14.0], rtol=1e-14)
    _singular_values(a + a.T)
    assert [name for name, _ in singular_value_calls] == ["svd", "eigvalsh"]
