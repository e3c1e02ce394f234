"""Tests for entry-wise shrinkage and clipping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.estimators import (
    clip_l2,
    lasso_threshold,
    shrink,
    shrink_dataset,
    shrinkage_bias_bound,
    sparse_regression_threshold,
)


class TestShrink:
    def test_caps_magnitude(self):
        out = shrink(np.array([-5.0, -0.5, 0.0, 0.5, 5.0]), 1.0)
        np.testing.assert_allclose(out, [-1.0, -0.5, 0.0, 0.5, 1.0])

    def test_preserves_sign(self):
        x = np.array([-3.0, 3.0])
        out = shrink(x, 2.0)
        np.testing.assert_array_equal(np.sign(out), np.sign(x))

    def test_matrix_input(self):
        out = shrink(np.full((2, 3), 10.0), 4.0)
        assert out.shape == (2, 3)
        assert np.all(out == 4.0)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            shrink(np.ones(3), 0.0)

    @given(hnp.arrays(np.float64, 10,
                      elements=st.floats(-1e6, 1e6)),
           st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=50)
    def test_idempotent_and_bounded(self, x, k):
        once = shrink(x, k)
        assert np.all(np.abs(once) <= k + 1e-12)
        np.testing.assert_allclose(shrink(once, k), once)

    @given(hnp.arrays(np.float64, 10, elements=st.floats(-100, 100)),
           st.floats(min_value=0.1, max_value=10))
    @settings(max_examples=50)
    def test_non_expansive(self, x, k):
        """Shrinkage never increases any entry's magnitude."""
        assert np.all(np.abs(shrink(x, k)) <= np.abs(x) + 1e-12)

    @pytest.mark.parametrize("k", [5e-324, 1e-3, 1.0, 3.5, 1e308])
    def test_matches_sign_min_oracle_bitwise(self, rng, k):
        """Bit for bit ``sign(v) * min(|v|, K)``, signed zeros, NaNs and subnormals included."""
        specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                             5e-324, -5e-324, 1e308, -1e308])
        scales = 10.0 ** rng.uniform(-320, 300, 500)
        v = np.concatenate([specials, rng.standard_normal(500) * scales])
        rng.shuffle(v)
        for values in (v, v.reshape(51, 10), v.reshape(10, 51).T, v[::3], np.asarray(v[1])):
            expected = np.sign(values) * np.minimum(np.abs(values), k)
            actual = shrink(values, k)
            assert np.shape(actual) == np.shape(expected)
            assert type(actual) is type(expected)
            np.testing.assert_array_equal(np.asarray(actual).view(np.int64),
                                          np.asarray(expected).view(np.int64))

    def test_input_left_untouched(self):
        v = np.array([-0.0, -3.0, 2.0])
        shrink(v, 1.0)
        np.testing.assert_array_equal(v.view(np.int64),
                                      np.array([-0.0, -3.0, 2.0]).view(np.int64))

    def test_no_op_above_all_entries(self):
        x = np.array([0.5, -0.25])
        np.testing.assert_array_equal(shrink(x, 10.0), x)


class TestShrinkDataset:
    def test_shrinks_both(self):
        X = np.full((3, 2), 9.0)
        y = np.array([-9.0, 0.0, 9.0])
        Xs, ys = shrink_dataset(X, y, 1.0)
        assert np.all(Xs == 1.0)
        np.testing.assert_allclose(ys, [-1.0, 0.0, 1.0])


class TestThresholdSchedules:
    def test_lasso_threshold_formula(self):
        K = lasso_threshold(10_000, 1.0, 16)
        assert K == pytest.approx(10_000**0.25 / 16**0.125)

    def test_sparse_threshold_formula(self):
        K = sparse_regression_threshold(10_000, 1.0, 20, 10)
        assert K == pytest.approx((10_000 / 200) ** 0.25)

    def test_thresholds_grow_with_n(self):
        assert lasso_threshold(10**6, 1.0, 10) > lasso_threshold(10**3, 1.0, 10)
        assert (sparse_regression_threshold(10**6, 1.0, 10, 5)
                > sparse_regression_threshold(10**3, 1.0, 10, 5))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            lasso_threshold(0, 1.0, 10)
        with pytest.raises(ValueError):
            sparse_regression_threshold(100, 1.0, 0, 10)


class TestShrinkageBias:
    def test_rate(self):
        assert shrinkage_bias_bound(10.0, 4.0) == pytest.approx(0.04)

    def test_empirical_distortion_within_rate(self, rng):
        """Measured covariance distortion should be O(M/K^2)."""
        n = 60_000
        x = rng.standard_t(df=8, size=n)  # finite 4th moment
        M = float(np.mean(x**4))
        for K in (2.0, 4.0, 8.0):
            distortion = abs(np.mean(shrink(x, K) ** 2) - np.mean(x**2))
            assert distortion <= 5.0 * shrinkage_bias_bound(K, M) + 0.05


class TestClipL2:
    def test_short_vectors_unchanged(self):
        v = np.array([0.3, 0.4])
        np.testing.assert_array_equal(clip_l2(v, 1.0), v)

    def test_long_vectors_rescaled(self):
        v = np.array([3.0, 4.0])
        out = clip_l2(v, 1.0)
        assert np.linalg.norm(out) == pytest.approx(1.0)
        np.testing.assert_allclose(out, v / 5.0)

    def test_rowwise(self):
        rows = np.array([[3.0, 4.0], [0.1, 0.0]])
        out = clip_l2(rows, 1.0)
        assert np.linalg.norm(out[0]) == pytest.approx(1.0)
        np.testing.assert_array_equal(out[1], rows[1])

    def test_zero_vector_safe(self):
        np.testing.assert_array_equal(clip_l2(np.zeros(3), 1.0), np.zeros(3))

    @given(hnp.arrays(np.float64, (5, 3), elements=st.floats(-100, 100)))
    @settings(max_examples=40)
    def test_norms_bounded(self, rows):
        out = clip_l2(rows, 2.0)
        assert np.all(np.linalg.norm(out, axis=1) <= 2.0 + 1e-9)
