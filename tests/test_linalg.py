import numpy as np
import pytest

from fedpecd.agent import score_arms
from fedpecd.errors import DimensionError, NonFiniteError, NotPSDError
from fedpecd.linalg import eigh_range, pinv


def random_symmetric(rng, d=3):
    a = rng.normal(size=(d, d))
    return 0.5 * (a + a.T)


def random_psd(rng, d=3, deficient=False):
    a = rng.normal(size=(d, d if not deficient else d - 1))
    return a @ a.T


class TestPinv:
    def test_identity(self):
        np.testing.assert_allclose(pinv(np.eye(3)), np.eye(3))

    def test_rank_one_projector_is_its_own_pinv(self):
        v = np.array([1.0, 0.0, 0.0])
        p = np.outer(v, v)
        np.testing.assert_allclose(pinv(p), p, atol=1e-14)

    def test_moore_penrose_condition(self, rng):
        """M pinv(M) M = M for random symmetric matrices."""
        for _ in range(50):
            m = random_symmetric(rng)
            mp = pinv(m)
            np.testing.assert_allclose(m @ mp @ m, m, atol=1e-10)

    def test_double_pinv_recovers_psd_input(self, rng):
        for deficient in (False, True):
            for _ in range(25):
                m = random_psd(rng, deficient=deficient)
                scale = np.linalg.norm(m)
                np.testing.assert_allclose(pinv(pinv(m)), m, atol=1e-8 * scale)

    def test_pinv_symmetric(self, rng):
        for _ in range(25):
            mp = pinv(random_psd(rng))
            np.testing.assert_allclose(mp, mp.T, atol=1e-12)

    def test_zero_matrix(self):
        np.testing.assert_allclose(pinv(np.zeros((2, 2))), np.zeros((2, 2)))

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            pinv(np.ones((2, 3)))

    def test_non_finite_rejected(self):
        m = np.eye(2)
        m[0, 1] = np.nan
        with pytest.raises(NonFiniteError):
            pinv(m)

    def test_stack_matches_each_matrix_bit_for_bit(self, rng):
        mats = [random_psd(rng), random_psd(rng, deficient=True), np.zeros((3, 3)),
                random_symmetric(rng), 1e6 * random_psd(rng), np.eye(3)]
        stack = np.array(mats).reshape(2, 3, 3, 3)
        out = pinv(stack)
        assert out.shape == stack.shape
        for idx in np.ndindex(2, 3):
            assert np.array_equal(out[idx], pinv(stack[idx]))

    @pytest.mark.parametrize("shape", [(3,), (4, 2, 3), (2, 2, 3, 2)])
    def test_non_square_stack_rejected(self, shape):
        with pytest.raises(DimensionError):
            pinv(np.ones(shape))


def weighted_norm(z, v) -> float:
    """||z||_V as ``agent.score_arms`` computes it: one arm, alpha = ell = 1."""
    z = np.asarray(z, dtype=float)
    v = np.asarray(v, dtype=float)
    return float(score_arms(z[None], np.zeros((1, z.size)), v[None], 1.0, 1.0)[1][0])


class TestWeightedNorm:
    def test_identity_weight_is_euclidean(self, rng):
        for _ in range(50):
            z = rng.normal(size=4)
            assert weighted_norm(z, np.eye(4)) == pytest.approx(np.linalg.norm(z))

    def test_zero_vector(self):
        assert weighted_norm(np.zeros(3), np.eye(3)) == 0.0

    def test_diagonal_case(self):
        assert weighted_norm([1.0, 0.0], np.diag([4.0, 1.0])) == pytest.approx(2.0)

    def test_tiny_negative_clamped(self):
        # ensure a quadratic form just below zero is treated as zero
        v = np.array([[-1e-13, 0.0], [0.0, 1.0]])
        assert weighted_norm([1.0, 0.0], v) == 0.0

    def test_not_psd_raises(self):
        with pytest.raises(NotPSDError):
            weighted_norm([0.0, 1.0], np.diag([1.0, -1.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            weighted_norm([1.0, 2.0, 3.0], np.eye(2))


def log_det_on_range(m) -> float:
    """Log pseudo-determinant from eigh_range's eigenvalues and range mask."""
    w, keep, _ = eigh_range(m)
    return float(np.sum(np.log(w[keep])))


class TestLogDetOnRange:
    def test_identity_is_zero(self):
        assert log_det_on_range(np.eye(3)) == 0.0

    def test_diagonal_pseudo_determinant(self):
        assert log_det_on_range(np.diag([2.0, 3.0, 0.0])) == pytest.approx(np.log(6.0))

    def test_matches_eigenvalue_product(self, rng):
        """Oracle: product of positive eigenvalues, computed independently."""
        for deficient in (False, True):
            for _ in range(25):
                m = random_psd(rng, deficient=deficient)
                w = np.linalg.eigvalsh(m)
                cut = w.size * np.max(np.abs(w)) * 1e-12
                expected = np.sum(np.log(w[w > cut]))
                assert log_det_on_range(m) == pytest.approx(expected, abs=1e-9)

    def test_rank_cutoff_consistency(self, rng):
        for deficient in (False, True):
            for _ in range(25):
                m = random_psd(rng, deficient=deficient)
                w = np.linalg.eigvalsh(m)
                cut = w.size * np.max(np.abs(w)) * 1e-12
                keep = eigh_range(m)[1]
                assert int(keep.sum()) == int(np.sum(np.abs(w) > cut))
                assert int(keep.sum()) == (2 if deficient else 3)
