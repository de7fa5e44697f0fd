import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hypothesis import given, settings
from hypothesis import strategies as st

from qubogs.heatgrid import HeatProblem, assemble_system, boundary_temperature, grid_to_field, solve_plate
from qubogs.linear import LinearSystem
from qubogs.reference import direct_solve


def loop_assemble_system(problem):
    """Node-by-node five-point assembly: the oracle for the array version."""
    m = problem.m
    nside = m - 1
    n = nside * nside
    entries = []  # (row, col, value)
    b = np.zeros(n)
    for j in range(1, m):
        for i in range(1, m):
            k = problem.row_of(i, j)
            # neighbors in ascending column order: below, left, center, right, above
            if j - 1 >= 1:
                entries.append((k, k - nside, -1.0))
            else:
                b[k] += problem.edge_value("bottom", problem.node(i))
            if i - 1 >= 1:
                entries.append((k, k - 1, -1.0))
            else:
                b[k] += problem.edge_value("left", problem.node(j))
            entries.append((k, k, 4.0))
            if i + 1 <= m - 1:
                entries.append((k, k + 1, -1.0))
            else:
                b[k] += problem.edge_value("right", problem.node(j))
            if j + 1 <= m - 1:
                entries.append((k, k + nside, -1.0))
            else:
                b[k] += problem.edge_value("top", problem.node(i))
    for i, j, strength in problem.sources:
        b[problem.row_of(i, j)] += strength
    rows, cols, vals = zip(*entries)
    return LinearSystem(n, rows, cols, vals, b)


def loop_grid_to_field(x, problem):
    """Node-by-node field expansion: the oracle for the array version."""
    m = problem.m
    field_ = np.zeros((m + 1, m + 1))
    for i in range(m + 1):
        field_[i, 0] = problem.edge_value("bottom", problem.node(i))
        field_[i, m] = problem.edge_value("top", problem.node(i))
    for j in range(1, m):
        field_[0, j] = problem.edge_value("left", problem.node(j))
        field_[m, j] = problem.edge_value("right", problem.node(j))
    for j in range(1, m):
        for i in range(1, m):
            field_[i, j] = x[problem.row_of(i, j)]
    return field_


# four different non-constant edges with inexact values, so the order of b's additions shows in its rounding
CUSTOM_BOUNDARY = {
    "bottom": lambda s: math.sin(3.0 * s) + 0.1,
    "left": lambda s: s * s - 1.0 / 3.0,
    "right": lambda s: 7.0 * s + 0.7,
    "top": lambda s: math.exp(s) / 3.0,
}
# keyword arguments for HeatProblem; "default" passes no boundary at all
BOUNDARIES = {
    "default": {},
    "ramp": {"boundary": "ramp"},
    "zero": {"boundary": "zero"},
    "custom": {"boundary": CUSTOM_BOUNDARY},
}


def bilinear_exact(problem):
    """The ramp-boundary problem has the harmonic solution T = 100*x*y/L^2,
    which the five-point stencil reproduces exactly (its fourth derivatives vanish)."""
    scale = 100.0 / problem.length**2
    return np.array(
        [scale * problem.node(i) * problem.node(j) for j in range(1, problem.m) for i in range(1, problem.m)]
    )


def test_boundary_temperature_defaults():
    assert boundary_temperature("top", 1.0, 1.0) == 100.0
    assert boundary_temperature("bottom", 0.3, 1.0) == 0.0
    assert boundary_temperature("left", 0.7, 1.0) == 0.0
    assert boundary_temperature("right", 0.5, 1.0) == 50.0


def test_boundary_temperature_rejects_bad_input():
    with pytest.raises(ValueError):
        boundary_temperature("top", 1.5, 1.0)
    with pytest.raises(ValueError):
        boundary_temperature("top", -0.1, 1.0)
    with pytest.raises(ValueError):
        boundary_temperature("north", 0.5, 1.0)


def test_named_boundary():
    zero = HeatProblem(3, 1.0, "zero")
    assert all(zero.edge_value(e, 0.4) == 0.0 for e in ("bottom", "top", "left", "right"))
    assert HeatProblem(3, 2.0, "ramp").edge_value("top", 2.0) == 100.0
    with pytest.raises(ValueError, match="unknown boundary profile 'hot', expected 'ramp' or 'zero'"):
        HeatProblem(3, 1.0, "hot")


def test_ramp_follows_the_plate_length():
    half = assemble_system(HeatProblem(4, 0.5, "ramp")).b
    assert np.array_equal(half, assemble_system(HeatProblem(4, 0.5)).b)
    assert half[-1] == 150.0
    # the name is resolved at call time, so a replaced length takes the ramp with it
    resized = dataclasses.replace(HeatProblem(4, 0.5, "ramp"), length=1.0)
    assert np.array_equal(assemble_system(resized).b, assemble_system(HeatProblem(4, 1.0)).b)


def test_stencil_ignores_length_boundary_and_sources():
    # HeatProblem.kappa rests on A being the bare 4/-1 stencil for every plate of one m
    m = 6
    plates = [
        HeatProblem(m),
        HeatProblem(m, length=0.3),
        HeatProblem(m, length=7.5, boundary="zero"),
        HeatProblem(m, boundary=dict.fromkeys(("bottom", "top", "left", "right"), lambda s: 40.0 * s - 3.0)),
        HeatProblem(m, length=2.0, sources=[(1, 1, 25.0), (3, 4, -12.5), (5, 5, 1e6)]),
    ]
    first = assemble_system(plates[0])
    for problem in plates[1:]:
        system = assemble_system(problem)
        for name in ("rows", "cols", "vals"):
            assert np.array_equal(getattr(system, name), getattr(first, name)), (problem, name)


def test_single_interior_node():
    # one unknown, four prescribed neighbors: 4*T = 10+20+30+40
    boundary = {
        "bottom": lambda s: 10.0,
        "top": lambda s: 20.0,
        "left": lambda s: 30.0,
        "right": lambda s: 40.0,
    }
    system = assemble_system(HeatProblem(2, 1.0, boundary))
    assert system.n == 1
    assert_allclose(system.to_dense(), [[4.0]])
    assert_allclose(system.b, [100.0])
    assert_allclose(direct_solve(system), [25.0])


def test_zero_boundaries_give_zero_solution():
    system = assemble_system(HeatProblem(3, 1.0, "zero"))
    assert_allclose(system.b, 0.0)
    assert_allclose(direct_solve(system), 0.0)


def test_demo_assembly_shape(heat_demo):
    problem, system, _ = heat_demo
    assert system.n == 81
    dense = system.to_dense()
    assert_allclose(np.diag(dense), 4.0)
    off = dense - np.diag(np.diag(dense))
    assert set(np.unique(off)) <= {0.0, -1.0}
    assert np.bincount(system.rows).max() <= 5


def test_matrix_symmetric_and_diagonally_dominant(heat_demo):
    problem, system, _ = heat_demo
    dense = system.to_dense()
    assert_allclose(dense, dense.T)
    off_sums = np.abs(dense).sum(axis=1) - np.abs(np.diag(dense))
    assert np.all(np.diag(dense) >= off_sums)
    # rows touching the boundary lose neighbors and become strictly dominant;
    # fully interior rows ((m-3)^2 of them) are weakly dominant
    strict = int(np.sum(np.diag(dense) > off_sums))
    assert strict == problem.n - (problem.m - 3) ** 2


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_stencil_against_brute_force(m):
    # random interior values + random boundary: A x - b must equal the raw
    # stencil 4*T[i,j] - sum(neighbors) applied to the full field
    rng = np.random.default_rng(100 + m)
    edge_values = {e: rng.uniform(-5.0, 5.0, m + 1) for e in ("bottom", "top", "left", "right")}
    boundary = {e: (lambda s, e=e: float(edge_values[e][int(round(s * m))])) for e in edge_values}
    problem = HeatProblem(m, 1.0, boundary)
    system = assemble_system(problem)

    full = np.zeros((m + 1, m + 1))
    for i in range(m + 1):
        full[i, 0] = problem.edge_value("bottom", problem.node(i))
        full[i, m] = problem.edge_value("top", problem.node(i))
    for j in range(1, m):
        full[0, j] = problem.edge_value("left", problem.node(j))
        full[m, j] = problem.edge_value("right", problem.node(j))
    interior = rng.uniform(-10.0, 10.0, problem.n)
    for j in range(1, m):
        for i in range(1, m):
            full[i, j] = interior[problem.row_of(i, j)]

    lhs = system.matvec(interior) - system.b
    for j in range(1, m):
        for i in range(1, m):
            stencil = 4 * full[i, j] - full[i + 1, j] - full[i - 1, j] - full[i, j + 1] - full[i, j - 1]
            assert lhs[problem.row_of(i, j)] == pytest.approx(stencil, abs=1e-12)


def test_bilinear_data_solved_exactly(heat_demo):
    problem, system, exact = heat_demo
    assert_allclose(exact, bilinear_exact(problem), atol=1e-9)


def test_sources_add_to_rhs():
    base = assemble_system(HeatProblem(3))
    with_source = assemble_system(HeatProblem(3, sources=[(1, 2, 7.5), (2, 2, -2.5)]))
    delta = with_source.b - base.b
    problem = HeatProblem(3)
    expected = np.zeros(4)
    expected[problem.row_of(1, 2)] = 7.5
    expected[problem.row_of(2, 2)] = -2.5
    assert_allclose(delta, expected)
    # whole-valued float coordinates are stored as ints and assemble the same b
    floats = HeatProblem(4, sources=[(2.0, 3.0, 1.0)])
    assert floats.sources == [(2, 3, 1.0)] and all(type(v) is int for v in floats.sources[0][:2])
    assert np.array_equal(assemble_system(floats).b, assemble_system(HeatProblem(4, sources=[(2, 3, 1.0)])).b)


def test_invalid_problems_rejected():
    for m in (1, 2.5, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="m "):
            HeatProblem(m)
    with pytest.raises(ValueError):
        HeatProblem(3, sources=[(0, 1, 1.0)])  # boundary node
    with pytest.raises(ValueError):
        HeatProblem(3, sources=[(3, 1, 1.0)])  # boundary node
    with pytest.raises(ValueError):
        HeatProblem(3, sources=[(5, 1, 1.0)])  # out of range
    with pytest.raises(ValueError):
        HeatProblem(3, sources=[(1.5, 1, 1.0)])  # not a node
    with pytest.raises(ValueError):
        HeatProblem(3, length=-1.0)


def test_grid_to_field_zero_case():
    problem = HeatProblem(3, 1.0, "zero")
    field = grid_to_field(np.zeros(4), problem)
    assert field.shape == (4, 4)
    assert_allclose(field, 0.0)


def test_grid_to_field_center_value():
    boundary = {
        "bottom": lambda s: 10.0,
        "top": lambda s: 20.0,
        "left": lambda s: 30.0,
        "right": lambda s: 40.0,
    }
    field = grid_to_field(np.array([25.0]), HeatProblem(2, 1.0, boundary))
    assert field[1, 1] == 25.0
    assert field[1, 0] == 10.0 and field[1, 2] == 20.0


def test_grid_to_field_demo_corners(heat_demo):
    problem, _, exact = heat_demo
    field = grid_to_field(exact, problem)
    assert field[0, 0] == 0.0
    assert field[problem.m, problem.m] == 100.0
    # interior matches the row-major embedding
    assert field[1, 1] == exact[0]
    assert field.min() >= 0.0 and field.max() <= 100.0


def test_grid_to_field_length_mismatch(heat_demo):
    problem, _, _ = heat_demo
    with pytest.raises(ValueError):
        grid_to_field(np.zeros(5), problem)


@pytest.mark.parametrize("boundary", sorted(BOUNDARIES))
def test_array_assembly_matches_loop_oracle(boundary):
    # 30 sizes x 2 source lists per boundary kind; m=2 has one node beside all four edges
    rng = np.random.default_rng(2024)
    for m in range(2, 32):
        length = (1.0, 0.7, 2.5)[m % 3]
        for count in (m % 5, 4 - m % 5):
            nodes = rng.integers(1, m, size=(count, 2))
            nodes[::2, 0] = 1  # every other source next to the left edge
            nodes[1::4, 1] = m - 1  # some next to the top edge
            # the first node repeats, so one row takes two sources in list order
            sources = [(int(i), int(j), float(rng.uniform(-30.0, 30.0))) for i, j in [*nodes, *nodes[:1]]]
            problem = HeatProblem(m, length, sources=sources, **BOUNDARIES[boundary])
            got, want = assemble_system(problem), loop_assemble_system(problem)
            for name in ("rows", "cols", "vals", "b"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), (m, count, name)
            x = rng.uniform(-100.0, 100.0, problem.n)
            assert np.array_equal(grid_to_field(x, problem), loop_grid_to_field(x, problem)), (m, count)


CURVED_EDGES = {"bottom": math.sin, "top": math.cos, "left": lambda s: s * s, "right": lambda s: 3.0 - s}


def assert_plate_solve_matches_dense(problem, b):
    # both answers lie within n eps kappa of A^-1 b (relative), so they differ by at most twice that
    want = np.linalg.solve(assemble_system(problem).to_dense(), b)
    bound = 2 * problem.n * np.finfo(float).eps * problem.kappa
    assert np.linalg.norm(solve_plate(problem, b) - want) <= bound * np.linalg.norm(want)


@pytest.mark.parametrize("m", range(2, 41))
def test_solve_plate_matches_dense_solve(m):
    rng = np.random.default_rng(m)
    for boundary in ("ramp", "zero", CURVED_EDGES):
        nodes = rng.integers(1, m, (3, 2))
        problem = HeatProblem(m, 2.0, boundary, [(int(i), int(j), float(s)) for (i, j), s in zip(nodes, rng.normal(0.0, 50.0, 3))])
        assert_plate_solve_matches_dense(problem, assemble_system(problem).b)
    assert_plate_solve_matches_dense(problem, rng.standard_normal(problem.n))


def test_solve_plate_single_node_and_zero_source():
    assert_allclose(solve_plate(HeatProblem(2), [8.0]), [2.0], rtol=4 * np.finfo(float).eps)
    assert np.array_equal(solve_plate(HeatProblem(7), np.zeros(36)), np.zeros(36))
    with pytest.raises(ValueError, match="must have length 9"):
        solve_plate(HeatProblem(4), np.ones(5))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(3, 16), st.sampled_from(["ramp", "zero"]), st.data())
def test_solve_plate_matches_dense_solve_for_any_sources(m, boundary, data):
    node = st.integers(1, m - 1)
    sources = data.draw(st.lists(st.tuples(node, node, st.floats(-1e4, 1e4)), max_size=6), label="sources")
    problem = HeatProblem(m, boundary=boundary, sources=sources)
    assert_plate_solve_matches_dense(problem, assemble_system(problem).b)
