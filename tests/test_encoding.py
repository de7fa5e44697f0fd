import numpy as np
import pytest
from numpy.testing import assert_allclose

from qubogs.blocksolve import _subsystem, partition, shrink_encoding
from qubogs.encoding import (
    BinaryEncoding,
    QuboProblem,
    decode,
    encode,
    estimate_resources,
    inverse_index,
    logical_index,
    required_bits,
)
from qubogs.heatgrid import HeatProblem, assemble_system
from qubogs.linear import LinearSystem
from qubogs.reference import direct_solve
from qubogs.samplers import energy, solve_exhaustive


def all_bitstrings(size: int) -> np.ndarray:
    states = np.arange(1 << size)
    shifts = size - 1 - np.arange(size)
    return ((states[:, None] >> shifts) & 1).astype(float)


def loop_encode(system: LinearSystem, enc: BinaryEncoding):
    """Reference QUBO built pair by pair: (linear, pair matrix, offset).

    The coefficient formulas of ``encode`` evaluated one (variable, bit) pair
    at a time, with same-bit squares folded into the linear part and each
    off-diagonal pair stored twice its upper-triangular coefficient.
    """
    a = system.to_dense()
    g = a.T @ a
    atb = a.T @ system.b
    bits = enc.bits
    weights = 2.0 ** -np.arange(bits)

    linear = np.zeros(enc.size)
    drive = g @ enc.offset + atb
    for i in range(enc.n):
        base = -2.0 * enc.scale[i] * drive[i]
        linear[i * bits : (i + 1) * bits] = base * weights

    pairs = np.zeros((enc.size, enc.size))
    for i in range(enc.n):
        for j in range(i, enc.n):
            gij = g[i, j] * enc.scale[i] * enc.scale[j]
            if gij == 0.0:
                continue
            for r in range(bits):
                for s in range(r if i == j else 0, bits):
                    coeff = gij * weights[r] * weights[s]
                    l = i * bits + r
                    k = j * bits + s
                    if l == k:
                        linear[l] += coeff
                    else:
                        pairs[l, k] += 2.0 * coeff
                        pairs[k, l] = pairs[l, k]

    residual_at_origin = a @ enc.offset + system.b
    return linear, pairs, float(residual_at_origin @ residual_at_origin)


def assert_matches_loop_encode(system: LinearSystem, enc: BinaryEncoding):
    qubo = encode(system, enc)
    linear, pairs, offset = loop_encode(system, enc)
    assert np.array_equal(qubo.linear, linear)
    assert np.array_equal(qubo.pair_matrix(), pairs)
    assert qubo.offset == offset


class TestIndexMapping:
    def test_examples(self):
        assert logical_index(0, 0, 4) == 0
        assert logical_index(2, 3, 4) == 11
        assert inverse_index(11, 4) == (2, 3)

    def test_round_trip(self):
        for bits in (1, 3, 5):
            for i in range(6):
                for r in range(bits):
                    assert inverse_index(logical_index(i, r, bits), bits) == (i, r)

    def test_range_errors(self):
        with pytest.raises(ValueError):
            logical_index(0, 4, 4)
        with pytest.raises(ValueError):
            logical_index(-1, 0, 4)
        with pytest.raises(ValueError):
            inverse_index(-3, 4)


class TestDecode:
    def test_all_zeros_hits_lower_end(self):
        enc = BinaryEncoding.uniform(3, 4, 1.0, 0.5)
        assert_allclose(decode(np.zeros(12), enc), -0.5)

    def test_two_bit_value(self):
        enc = BinaryEncoding.uniform(1, 2, 1.0, 0.0)
        assert decode([1, 1], enc)[0] == 1.5

    def test_all_ones_below_open_end(self):
        enc = BinaryEncoding(2, 3, np.array([1.0, 4.0]), np.array([0.25, -1.0]))
        got = decode(np.ones(6), enc)
        expected = 2.0 * enc.scale * (1.0 - 2.0**-3) - enc.offset
        assert_allclose(got, expected)
        assert np.all(got < enc.upper())

    def test_range_and_distinct_values(self):
        enc = BinaryEncoding(1, 3, np.array([1.7]), np.array([0.4]))
        values = sorted(decode(bits, enc)[0] for bits in all_bitstrings(3))
        assert len(set(values)) == 8
        assert values[0] == -0.4
        gaps = np.diff(values)
        assert_allclose(gaps, 1.7 * 2.0**-2)  # adjacent representable values differ by c*2^-(R-1)
        assert np.all(np.array(values) >= enc.lower()[0])
        assert np.all(np.array(values) < enc.upper()[0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            decode([0, 1], BinaryEncoding.uniform(1, 3, 1.0))

    def test_interval_spans_both_signs_when_offset_allows(self):
        # offset d > 0 with scale c > d/2 puts zero strictly inside the interval
        enc = BinaryEncoding.uniform(1, 2, 1.0, 0.5)
        assert enc.lower()[0] < 0.0 < enc.upper()[0]


class TestRequiredBits:
    def test_examples(self):
        assert required_bits(1.0, 0.5) == 2
        assert required_bits(1.0, 2.0) == 1
        assert required_bits(50.0, 50.0) == 1

    def test_minimality_property(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            c = float(rng.uniform(0.01, 100.0))
            eps = float(rng.uniform(0.001, 10.0))
            r = required_bits(c, eps)
            assert 2.0 * c / 2.0**r <= eps
            assert r == 1 or 2.0 * c / 2.0 ** (r - 1) > eps

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            required_bits(0.0, 1.0)
        with pytest.raises(ValueError):
            required_bits(1.0, 0.0)


class TestResources:
    def test_full_system_count(self):
        assert estimate_resources(81, 7, 1).full_system_qubits == 567

    def test_block_count(self):
        report = estimate_resources(81, 7, 11)
        assert report.block_size == 8
        assert report.per_block_qubits == 56

    def test_no_split_no_reduction(self):
        assert estimate_resources(81, 7, 1).connection_reduction == 0.0

    def test_reduction_formula(self):
        report = estimate_resources(81, 7, 11)
        assert report.connection_reduction == pytest.approx(81**2 * 7**2 * (1 - 1 / 121), rel=1e-12)

    def test_bounds(self):
        with pytest.raises(ValueError):
            estimate_resources(10, 3, 0)
        with pytest.raises(ValueError):
            estimate_resources(10, 3, 11)


class TestEncode:
    def test_unit_system(self):
        system = LinearSystem.from_dense([[1.0]], [1.0])
        qubo = encode(system, BinaryEncoding.uniform(1, 1, 1.0, 0.0))
        # raw linear -2 plus the folded same-bit square +1
        assert_allclose(qubo.linear, [-1.0])
        assert np.array_equal(qubo.pair_matrix(), np.zeros((1, 1)))
        assert qubo.offset == 1.0
        assert energy(qubo, [1]) == -1.0

    def test_centered_target_leaves_pure_squares(self):
        rng = np.random.default_rng(8)
        a = rng.uniform(-2, 2, (3, 3))
        d = rng.uniform(-1, 1, 3)
        c = rng.uniform(0.5, 2, 3)
        enc = BinaryEncoding(3, 2, c, d)
        system = LinearSystem.from_dense(a, -a @ d)  # encoded target is the all-zeros corner
        qubo = encode(system, enc)
        assert qubo.offset == 0.0
        g = a.T @ a
        expected_linear = np.array([g[i, i] * c[i] ** 2 * 4.0**-r for i in range(3) for r in range(2)])
        assert_allclose(qubo.linear, expected_linear, atol=1e-12)
        best = solve_exhaustive(qubo).best_sample
        assert best.bits == (0,) * 6
        assert best.energy == 0.0

    def test_energy_identity_exhaustive(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            bits = int(rng.integers(1, 4))
            a = rng.uniform(-2, 2, (n, n))
            b = rng.uniform(-2, 2, n)
            enc = BinaryEncoding(n, bits, rng.uniform(0.5, 2, n), rng.uniform(-1, 1, n))
            system = LinearSystem.from_dense(a, b)
            qubo = encode(system, enc)
            for q in all_bitstrings(n * bits):
                reference = float(np.sum((a @ decode(q, enc) - b) ** 2))
                assert energy(qubo, q) + qubo.offset == pytest.approx(reference, rel=1e-9, abs=1e-9)

    def test_pair_matrix_symmetric_with_zero_diagonal(self):
        system = LinearSystem.from_dense([[1.0, 0.5], [0.5, 2.0]], [1.0, -1.0])
        w = encode(system, BinaryEncoding.uniform(2, 2, 1.0, 0.0)).pair_matrix()
        assert w.shape == (4, 4)
        assert np.array_equal(w, w.T)
        assert np.all(np.diag(w) == 0.0)
        assert np.all(w[np.triu_indices(4, 1)] != 0.0)

    def test_dimension_mismatch(self):
        system = LinearSystem.from_dense([[1.0]], [1.0])
        with pytest.raises(ValueError):
            encode(system, BinaryEncoding.uniform(2, 1, 1.0))


class TestLoopEncodeOracle:
    """The vectorized encode reproduces the pair-by-pair loop bit for bit."""

    def test_random_encodings(self):
        rng = np.random.default_rng(4401)
        for _ in range(240):
            n = int(rng.integers(1, 7))
            bits = int(rng.integers(1, 5))
            a = rng.uniform(-2, 2, (n, n))
            a[rng.random((n, n)) < 0.3] = 0.0  # sparse couplings exercise the skipped pairs
            enc = BinaryEncoding(n, bits, rng.uniform(0.05, 60, n), rng.uniform(-50, 50, n))
            assert_matches_loop_encode(LinearSystem.from_dense(a, rng.uniform(-20, 20, n)), enc)

    @pytest.mark.parametrize("m, blocks", [(10, 9), (20, 19)])
    def test_shrunk_window_blocks_of_sourced_plate(self, m, blocks):
        problem = HeatProblem(m, sources=[(2, 3, 25.0), (m - 3, m - 2, -15.0)])
        system = assemble_system(problem)
        exact = direct_solve(system)
        rng = np.random.default_rng(m)
        initial = BinaryEncoding.uniform(system.n, 3, 50.0, 0.0)
        for k in (1, 4, 12, 30):
            # a window centered near the solution, as after k-1 shrinking sweeps
            x = exact + rng.normal(0.0, 0.8**k, system.n)
            enc = shrink_encoding(initial, x, 0.8, k)
            for lo, hi in partition(system.n, blocks).blocks:
                assert_matches_loop_encode(_subsystem(system, lo, hi, x), enc.slice(lo, hi))


class TestQuboProblemValidation:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            QuboProblem(1, np.array([np.inf]), np.zeros((1, 1)), 0.0)
        with pytest.raises(ValueError):
            QuboProblem(2, np.zeros(2), np.array([[0.0, np.nan], [np.nan, 0.0]]), 0.0)

    def test_rejects_bad_pairs(self):
        with pytest.raises(ValueError):
            QuboProblem(2, np.zeros(2), np.array([[0.0, 1.0], [0.0, 0.0]]), 0.0)  # asymmetric
        with pytest.raises(ValueError):
            QuboProblem(2, np.zeros(2), np.array([[1.0, 0.0], [0.0, 0.0]]), 0.0)  # nonzero diagonal
        with pytest.raises(ValueError):
            QuboProblem(2, np.zeros(2), np.zeros((3, 3)), 0.0)

    def test_rejects_bad_encoding(self):
        with pytest.raises(ValueError):
            BinaryEncoding.uniform(2, 0, 1.0)
        with pytest.raises(ValueError):
            BinaryEncoding.uniform(2, 3, -1.0)
