import numpy as np
import pytest

from slqr.errors import ValidationError
from slqr.packing import (
    congruence,
    packed_indices,
    packed_length,
    side_from_packed_length,
    symmetrize,
    unvech,
    unvecs,
    vech,
    vecs,
)


def test_packed_length_round_trip():
    for n in range(1, 12):
        assert side_from_packed_length(packed_length(n)) == n


def test_packed_indices_are_the_shared_read_only_scan_order():
    for n in range(1, 8):
        rows, cols = packed_indices(n)
        expected = np.triu_indices(n)
        np.testing.assert_array_equal(rows, expected[0])
        np.testing.assert_array_equal(cols, expected[1])
        assert packed_indices(n)[0] is rows
        with pytest.raises(ValueError):
            rows[0] = 1


def test_congruence_applies_the_map_for_rectangular_factors():
    # unvech(congruence(F) @ vech(X)) is sum_c F_c X F_c^T for p x q factors
    # and symmetric q x q X, with a p(p+1)/2 x q(q+1)/2 matrix.
    rng = np.random.default_rng(12)
    for _ in range(40):
        c, p, q = (int(k) for k in rng.integers(1, 7, size=3))
        factors = rng.normal(size=(c, p, q))
        g = rng.normal(size=(q, q))
        x = g + g.T
        mat = congruence(factors)
        assert mat.shape == (packed_length(p), packed_length(q))
        expected = sum(f @ x @ f.T for f in factors)
        got = unvech(mat @ vech(x))
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


def test_side_from_packed_length_rejects_non_triangular():
    for bad in (2, 4, 5, 7, 8, 9, 11):
        with pytest.raises(ValidationError,
                           match=rf"^length {bad} is not n\*\(n\+1\)/2 for any integer n$"):
            side_from_packed_length(bad)


def test_vech_examples():
    assert np.array_equal(vech([[1, 2], [2, 3]]), [1, 2, 3])
    assert np.array_equal(vech([[5]]), [5])
    assert np.array_equal(vech(np.eye(3)), [1, 0, 0, 1, 0, 1])


def test_vecs_examples():
    assert np.array_equal(vecs([[1, 2], [2, 3]]), [1, 4, 3])
    assert np.array_equal(vecs([[5]]), [5])
    assert np.array_equal(vecs(np.eye(2)), [1, 0, 1])


def test_unvecs_examples():
    assert np.array_equal(unvecs([1, 4, 3]), [[1, 2], [2, 3]])
    assert np.array_equal(unvecs([5]), [[5]])
    assert np.array_equal(unvecs([1, 0, 1]), np.eye(2))


def test_unvecs_rejects_bad_length():
    with pytest.raises(ValidationError,
                       match=r"^length 2 is not n\*\(n\+1\)/2 for any integer n$"):
        unvecs([1.0, 2.0])
    with pytest.raises(ValidationError,
                       match=r"^packed vector must be a 1-d vector, got shape \(2, 2\)$"):
        unvecs(np.zeros((2, 2)))


def test_unvecs_inverts_vecs_exactly():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        s = rng.normal(size=(n, n))
        s = s + s.T
        assert np.array_equal(unvecs(vecs(s)), s)


def test_quadratic_form_identity():
    # vech(z z^T) @ vecs(S) == z @ S @ z, the identity the regression rests on.
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(1, 8))
        z = rng.normal(size=n)
        s = rng.normal(size=(n, n))
        s = s + s.T
        lhs = vech(np.outer(z, z)) @ vecs(s)
        rhs = z @ s @ z
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_trace_identity():
    # vech(K) @ vecs(S) == trace(S K) for symmetric S, K.
    rng = np.random.default_rng(43)
    for _ in range(1000):
        n = int(rng.integers(1, 8))
        s = rng.normal(size=(n, n))
        s = s + s.T
        k = rng.normal(size=(n, n))
        k = k + k.T
        lhs = vech(k) @ vecs(s)
        rhs = np.trace(s @ k)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_symmetrize_accepts_roundoff_asymmetry():
    rng = np.random.default_rng(1)
    base = rng.normal(size=(4, 4))
    base = base + base.T
    noisy = base.copy()
    noisy[0, 1] += 1e-12
    out = symmetrize(noisy)
    assert np.array_equal(out, out.T)
    assert np.abs(out - base).max() < 1e-11


def test_symmetrize_rejects_genuine_asymmetry():
    with pytest.raises(ValidationError):
        symmetrize([[1.0, 2.0], [0.5, 3.0]])
    with pytest.raises(ValidationError):
        symmetrize(np.zeros((2, 3)))
    # Entries near the float maximum: the asymmetry 2e308 does not overflow.
    with pytest.raises(ValidationError, match=r"max \|M - M\^T\| = inf exceeds"):
        symmetrize([[0.0, 1e308], [-1e308, 0.0]])


@pytest.mark.parametrize("big", [1e308, -1e308, np.finfo(float).max])
def test_symmetrize_keeps_entries_near_the_float_maximum(big):
    # M + M^T would overflow; the halves do not, and give M back.
    mat = np.array([[big, big / 3], [big / 3, 2.0]])
    assert np.array_equal(symmetrize(mat), mat)


@pytest.mark.parametrize("pack", [vech, vecs])
def test_packing_a_vector_is_a_validation_error(pack):
    with pytest.raises(ValidationError, match=r"^matrix must be a 2-d matrix, got shape \(3,\)$"):
        pack(np.ones(3))


def test_vech_of_a_rectangular_matrix_is_a_validation_error():
    # Not a 3-entry triangle of its first two rows.
    with pytest.raises(ValidationError, match=r"^matrix must be square, got shape \(2, 3\)$"):
        vech(np.ones((2, 3)))


def test_unvech_reads_its_vector_by_name():
    with pytest.raises(ValidationError,
                       match=r"^packed vector must be a 1-d vector, got shape \(\)$"):
        unvech(3.0)
    # A string, and a ragged list, hold no real numbers.
    for vec in ("ab", ["a", "b", "c"], [[1.0], [1.0, 2.0]]):
        with pytest.raises(ValidationError,
                           match="^packed vector must be a vector of real numbers$"):
            unvech(vec)


def test_congruence_takes_a_3d_stack_of_factors():
    for factors, message in (("ab", "must be a matrix stack of real numbers"),
                             (np.eye(2), r"must be a 3-d matrix stack, got shape \(2, 2\)")):
        with pytest.raises(ValidationError, match=rf"^factors {message}$"):
            congruence(factors)


def test_unvech_passes_non_finite_entries_through():
    # The solvers check finiteness after unpacking a solve.
    mat = unvech([np.nan, 1.0, np.inf])
    assert np.isnan(mat[0, 0]) and mat[0, 1] == mat[1, 0] == 1.0 and mat[1, 1] == np.inf


def test_symmetrize_of_a_string_is_a_validation_error():
    with pytest.raises(ValidationError, match="^matrix must be a matrix of real numbers$"):
        symmetrize("ab")
