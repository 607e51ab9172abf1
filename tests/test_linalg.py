import numpy as np
import pytest

from inhernet.errors import DegenerateInputError, RangeError, ShapeError
from inhernet.linalg import (condition_number, frobenius_norm, log_softmax, softmax,
                             sum_rows, truncated_svd)
from inhernet.rng import philox


def jacobi_spectrum(w, sweeps=100, tol=1e-12):
    """Singular values of w via cyclic Jacobi rotations on w.T @ w.

    From-scratch eigensolver used as an oracle; never calls the SVD under
    test.
    """
    a = w.T @ w
    n = a.shape[0]
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off <= tol * np.sqrt(np.sum(np.diag(a) ** 2)):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) <= tol:
                    continue
                theta = 0.5 * np.arctan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, s = np.cos(theta), np.sin(theta)
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    eigs = np.sort(np.clip(np.diag(a), 0.0, None))[::-1]
    return np.sqrt(eigs)


class TestTruncatedSvd:
    def test_identity_spectrum(self):
        f = truncated_svd(np.eye(3), 2)
        assert np.allclose(f.sigma, [1.0, 1.0])
        err = frobenius_norm(np.eye(3) - f.reconstruct())
        assert abs(err - 1.0) < 1e-12

    def test_diagonal_truncation_error(self):
        f = truncated_svd(np.diag([3.0, 2.0, 1.0]), 2)
        err = frobenius_norm(np.diag([3.0, 2.0, 1.0]) - f.reconstruct())
        assert abs(err - 1.0) < 1e-12

    def test_against_jacobi_oracle(self):
        w = philox(3, 0).standard_normal((8, 5))
        f = truncated_svd(w, 3)
        oracle = jacobi_spectrum(w)
        err = frobenius_norm(w - f.reconstruct())
        expected = np.sqrt(np.sum(oracle[3:] ** 2))
        assert abs(err - expected) / expected < 1e-7
        assert np.max(np.abs(f.full_spectrum - oracle)) < 1e-7

    def test_sigma_prefix_of_full_spectrum(self):
        w = philox(4, 0).standard_normal((9, 6))
        f = truncated_svd(w, 4)
        assert f.full_spectrum.size == 6
        assert np.max(np.abs(f.sigma - f.full_spectrum[:4])) < 1e-10
        assert np.all(np.diff(f.full_spectrum) <= 0)

    @pytest.mark.parametrize("r", [0, 6, -1])
    def test_rank_out_of_range(self, r):
        with pytest.raises(RangeError):
            truncated_svd(np.ones((5, 7)), r)

    def test_eckart_young_dominance(self):
        gen = philox(5, 0)
        for _ in range(10):
            w = gen.standard_normal((12, 9))
            for r in (1, 2, 4):
                best = frobenius_norm(w - truncated_svd(w, r).reconstruct())
                for _ in range(100):
                    a = gen.standard_normal((12, r))
                    b = gen.standard_normal((r, 9))
                    assert best <= frobenius_norm(w - a @ b)

    def test_orthonormal_columns(self):
        for m, n in ((64, 48), (256, 256)):
            w = philox(6, 0, m).standard_normal((m, n))
            f = truncated_svd(w, min(m, n) // 2)
            assert np.max(np.abs(f.u.T @ f.u - np.eye(f.rank))) < 1e-8
            assert np.max(np.abs(f.v.T @ f.v - np.eye(f.rank))) < 1e-8

    def test_energy_identity(self):
        w = philox(7, 0).standard_normal((11, 13))
        f = truncated_svd(w, 5)
        energy = np.sum(f.full_spectrum ** 2)
        assert abs(energy - frobenius_norm(w) ** 2) / energy < 1e-8

    def test_tied_singular_values_compare_projectors(self):
        # identity has a fully tied spectrum; any orthonormal basis is fine,
        # so compare reconstruction and projector rather than raw factors
        f = truncated_svd(np.eye(4), 4)
        assert np.max(np.abs(f.reconstruct() - np.eye(4))) < 1e-12
        assert np.max(np.abs(f.u @ f.u.T - np.eye(4))) < 1e-10


class TestSoftmax:
    def test_uniform(self):
        assert np.allclose(softmax([0.0, 0.0, 0.0]), [1 / 3] * 3, atol=1e-15)

    def test_large_shift_no_overflow(self):
        out = softmax([1000.0, 1000.0])
        assert np.array_equal(out, [0.5, 0.5])

    def test_against_high_precision_reference(self):
        # reference values computed with 50-digit decimal arithmetic
        expected = [0.0900305731703804579980221,
                    0.2447284710547976524729596,
                    0.6652409557748218895290183]
        assert np.max(np.abs(softmax([1.0, 2.0, 3.0]) - expected)) < 1e-14

    def test_sum_one_at_large_magnitudes(self):
        gen = philox(8, 0)
        for offset in (0.0, 1e6, -1e6):
            v = offset + gen.standard_normal((30, 5))
            s = softmax(v)
            assert np.all(s > 0) and np.all(s <= 1)
            assert np.max(np.abs(s.sum(axis=1) - 1.0)) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            softmax([])

    @pytest.mark.parametrize("shape", [(3,), (9,), (1, 3), (64, 3), (512, 4), (16, 7),
                                       (16, 8), (40, 12), (2, 5, 3)])
    def test_matches_the_row_formula_bit_for_bit(self, shape):
        z = philox(9, 0).standard_normal(shape) * 4.0
        shifted = z - z.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        total = e.sum(axis=-1, keepdims=True)
        for got, want in ((softmax(z), e / total), (log_softmax(z), shifted - np.log(total))):
            assert got.flags.c_contiguous and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("width", range(1, 11))
    def test_sum_rows_is_the_row_sum_bit_for_bit(self, width):
        a = np.exp(3.0 * philox(10, width).standard_normal((37, width)))
        assert sum_rows(a).shape == (37, 1)
        assert sum_rows(a).tobytes() == a.sum(axis=-1, keepdims=True).tobytes()


class TestFrobeniusNorm:
    def test_zero(self):
        assert frobenius_norm(np.zeros((3, 4))) == 0.0

    def test_three_four_five(self):
        assert frobenius_norm([[3.0, 4.0]]) == 5.0

    def test_spectrum_identity(self):
        w = philox(9, 0).standard_normal((6, 6))
        f = truncated_svd(w, 6)
        expected = np.sqrt(np.sum(f.full_spectrum ** 2))
        assert abs(frobenius_norm(w) - expected) / expected < 1e-9


class TestConditionNumber:
    def test_identity(self):
        assert condition_number(np.eye(4)) == 1.0

    def test_diagonal(self):
        assert condition_number(np.diag([10.0, 1.0])) == 10.0

    def test_against_full_svd_spectrum(self):
        w = philox(10, 0).standard_normal((5, 5)) + 3 * np.eye(5)
        s = truncated_svd(w, 5).full_spectrum
        assert abs(condition_number(w) - s[0] / s[-1]) / (s[0] / s[-1]) < 1e-8

    def test_rank_deficient_ignores_null_space(self):
        w = np.diag([4.0, 2.0, 0.0])
        assert condition_number(w) == 2.0

    def test_zero_matrix_rejected(self):
        with pytest.raises(DegenerateInputError):
            condition_number(np.zeros((3, 3)))
