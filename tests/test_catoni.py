"""Tests for the smoothed Catoni estimator — the paper's statistical engine.

Includes the property-based checks that pin the implementation to the
math: the closed-form smoothed influence must agree with quadrature of
``E[phi(a + b xi)]`` everywhere, stay inside ``[-2sqrt(2)/3, 2sqrt(2)/3]``
and reduce to ``phi`` as the smoothing noise vanishes.

The oracle classes pin the fast kernels bit for bit to the original
masked implementation, kept verbatim below, and pin the far-tail limit
to quadrature.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from repro.estimators import (
    PHI_BOUND,
    PHI_KNEE,
    CatoniEstimator,
    correction_term,
    optimal_scale,
    phi,
    smoothed_phi,
    smoothed_phi_quadrature,
)


class TestPhi:
    def test_cubic_inside_knee(self):
        u = np.array([-1.0, 0.0, 0.5, 1.0])
        np.testing.assert_allclose(phi(u), u - u**3 / 6.0)

    def test_saturates_outside_knee(self):
        assert phi(np.array(10.0)) == pytest.approx(PHI_BOUND)
        assert phi(np.array(-10.0)) == pytest.approx(-PHI_BOUND)

    def test_continuous_at_knee(self):
        inner = float(phi(np.array(PHI_KNEE - 1e-12)))
        outer = float(phi(np.array(PHI_KNEE + 1e-12)))
        assert inner == pytest.approx(outer, abs=1e-9)
        assert outer == pytest.approx(PHI_BOUND)

    def test_odd_function(self):
        u = np.linspace(-5, 5, 101)
        np.testing.assert_allclose(phi(u), -phi(-u), atol=1e-15)

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_bounded_everywhere(self, u):
        assert abs(float(phi(np.array(u)))) <= PHI_BOUND + 1e-12

    @given(st.floats(min_value=-10, max_value=10))
    def test_catoni_log_sandwich(self, u):
        """phi satisfies -log(1 - u + u^2/2) <= phi(u) <= log(1 + u + u^2/2)."""
        val = float(phi(np.array(u)))
        upper = math.log(1.0 + u + u * u / 2.0)
        lower = -math.log(1.0 - u + u * u / 2.0)
        assert lower - 1e-9 <= val <= upper + 1e-9


class TestSmoothedPhi:
    @given(
        a=st.floats(min_value=-8, max_value=8),
        b=st.floats(min_value=1e-6, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_quadrature(self, a, b):
        closed = float(smoothed_phi(np.array(a), np.array(b)))
        reference = smoothed_phi_quadrature(a, b)
        assert closed == pytest.approx(reference, abs=1e-6)

    @given(
        a=st.floats(min_value=-100, max_value=100),
        b=st.floats(min_value=0, max_value=50),
    )
    @settings(max_examples=100, deadline=None)
    def test_bounded(self, a, b):
        assert abs(float(smoothed_phi(np.array(a), np.array(b)))) <= PHI_BOUND

    def test_degenerate_b_equals_phi(self):
        a = np.linspace(-3, 3, 17)
        np.testing.assert_allclose(smoothed_phi(a, np.zeros_like(a)), phi(a))

    def test_small_b_approaches_phi(self):
        a = np.array([0.5, 1.0, -2.5])
        out = smoothed_phi(a, np.full_like(a, 1e-6))
        np.testing.assert_allclose(out, phi(a), atol=1e-5)

    def test_odd_in_a(self):
        a = np.linspace(0.1, 4, 20)
        b = np.full_like(a, 0.7)
        np.testing.assert_allclose(smoothed_phi(a, b), -smoothed_phi(-a, b),
                                   atol=1e-12)

    def test_rejects_negative_b(self):
        with pytest.raises(ValueError):
            smoothed_phi(np.array(1.0), np.array(-0.5))

    def test_broadcasting(self):
        out = smoothed_phi(np.ones((2, 3)), np.array(0.5))
        assert out.shape == (2, 3)

    def test_correction_vanishes_for_central_a_small_b(self):
        # With a well inside the knee and tiny noise, phi never saturates,
        # so the correction is negligible.
        c = float(correction_term(np.array(0.1), np.array(0.01)))
        assert abs(c) < 1e-10


class TestCatoniEstimator:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            CatoniEstimator(scale=0.0)
        with pytest.raises(ValueError):
            CatoniEstimator(scale=1.0, beta=0.0)

    def test_estimates_gaussian_mean(self, rng):
        est = CatoniEstimator(scale=20.0)
        x = rng.normal(loc=3.0, scale=1.0, size=20_000)
        assert est.estimate(x) == pytest.approx(3.0, abs=0.1)

    def test_robust_to_one_huge_outlier(self, rng):
        est = CatoniEstimator(scale=10.0)
        x = rng.normal(loc=1.0, size=2000)
        x[0] = 1e9
        # Empirical mean is destroyed (~5e5); Catoni moves by <= s*bound/n.
        assert abs(np.mean(x)) > 1e5
        assert est.estimate(x) == pytest.approx(1.0, abs=0.2)

    def test_influence_bound(self, rng):
        est = CatoniEstimator(scale=2.0)
        x = rng.standard_cauchy(size=5000) * 100
        influences = est.influence(x)
        assert np.all(np.abs(influences) <= 2.0 * PHI_BOUND + 1e-12)

    def test_sensitivity_formula(self):
        est = CatoniEstimator(scale=3.0)
        assert est.sensitivity(100) == pytest.approx(4 * math.sqrt(2) * 3.0 / 300)

    def test_sensitivity_realized(self, rng):
        """Replacing one sample moves the estimate by at most the sensitivity."""
        est = CatoniEstimator(scale=1.5)
        x = rng.normal(size=200)
        base = est.estimate(x)
        worst = 0.0
        for replacement in (1e12, -1e12, 0.0):
            x2 = x.copy()
            x2[0] = replacement
            worst = max(worst, abs(est.estimate(x2) - base))
        assert worst <= est.sensitivity(200) + 1e-12

    def test_estimate_columns_matches_scalar(self, rng):
        est = CatoniEstimator(scale=5.0)
        X = rng.normal(size=(300, 4))
        cols = est.estimate_columns(X)
        expected = [est.estimate(X[:, j]) for j in range(4)]
        np.testing.assert_allclose(cols, expected)

    def test_estimate_rejects_bad_shapes(self):
        est = CatoniEstimator(scale=1.0)
        with pytest.raises(ValueError):
            est.estimate(np.ones((2, 2)))
        with pytest.raises(ValueError):
            est.estimate_columns(np.ones(3))

    def test_error_bound_holds_empirically(self, rng):
        """Lemma 4's deviation bound should hold for lognormal data."""
        tau = float(np.exp(2 * 0.6**2))  # second moment of Lognormal(0, .6)
        n = 4000
        failures = 0
        trials = 40
        for _ in range(trials):
            x = rng.lognormal(mean=0.0, sigma=0.6, size=n)
            scale = optimal_scale(n, tau, 0.05)
            est = CatoniEstimator(scale=scale)
            bound = est.error_bound(n, tau, 0.05)
            truth = float(np.exp(0.6**2 / 2))
            if abs(est.estimate(x) - truth) > bound:
                failures += 1
        assert failures <= 0.05 * trials + 2

    def test_noisy_estimate_mean_converges_to_smoothed(self, rng):
        """The Monte-Carlo eq.(3) estimator averages to the eq.(4) closed form."""
        est = CatoniEstimator(scale=2.0, beta=1.0)
        x = rng.normal(loc=1.0, size=50)
        smoothed = est.estimate(x)
        draws = [est.noisy_estimate(x, rng.normal(scale=1.0, size=x.size))
                 for _ in range(4000)]
        assert np.mean(draws) == pytest.approx(smoothed, abs=0.02)

    def test_noisy_estimate_shape_mismatch(self, rng):
        est = CatoniEstimator(scale=1.0)
        with pytest.raises(ValueError):
            est.noisy_estimate(np.ones(3), np.ones(4))


class TestOptimalScale:
    def test_balances_bound(self):
        """The optimal scale should (locally) minimise the Lemma 4 bound."""
        n, tau, zeta = 1000, 2.0, 0.05
        s_opt = optimal_scale(n, tau, zeta)
        best = CatoniEstimator(scale=s_opt).error_bound(n, tau, zeta)
        for factor in (0.5, 0.9, 1.1, 2.0):
            other = CatoniEstimator(scale=s_opt * factor).error_bound(n, tau, zeta)
            assert best <= other + 1e-12

    def test_grows_with_n(self):
        assert optimal_scale(10_000, 1.0, 0.05) > optimal_scale(100, 1.0, 0.05)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            optimal_scale(100, -1.0, 0.05)
        with pytest.raises(ValueError):
            optimal_scale(100, 1.0, 0.0)


# --- Oracle: the original masked kernel, verbatim (scipy.stats.norm.cdf) ---

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _oracle_correction_term(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    v_minus = (PHI_KNEE - a) / b
    v_plus = (PHI_KNEE + a) / b
    f_minus = norm.cdf(-v_minus)
    f_plus = norm.cdf(-v_plus)
    e_minus = np.exp(-0.5 * v_minus**2)
    e_plus = np.exp(-0.5 * v_plus**2)

    t1 = PHI_BOUND * (f_minus - f_plus)
    t2 = -(a - a**3 / 6.0) * (f_minus + f_plus)
    t3 = b / _SQRT_2PI * (1.0 - a**2 / 2.0) * (e_plus - e_minus)
    t4 = (a * b**2 / 2.0) * (
        f_plus + f_minus + (v_plus * e_plus + v_minus * e_minus) / _SQRT_2PI
    )
    t5 = b**3 / (6.0 * _SQRT_2PI) * ((2.0 + v_minus**2) * e_minus - (2.0 + v_plus**2) * e_plus)
    return t1 + t2 + t3 + t4 + t5


def _oracle_smoothed_phi(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(b < 0):
        raise ValueError("b must be non-negative")
    a, b = np.broadcast_arrays(a, b)
    out = np.empty_like(a)

    degenerate = b < 1e-12
    if np.any(degenerate):
        out[degenerate] = phi(a[degenerate])
    active = ~degenerate
    if np.any(active):
        aa = a[active]
        bb = b[active]
        main = aa * (1.0 - bb**2 / 2.0) - aa**3 / 6.0
        out[active] = main + _oracle_correction_term(aa, bb)
    return np.clip(out, -PHI_BOUND, PHI_BOUND)


def _oracle_influence(est, x):
    a = x / est.scale
    b = np.abs(x) / (est.scale * math.sqrt(est.beta))
    return est.scale * _oracle_smoothed_phi(a, b)


def _assert_bitwise(actual, expected):
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype == np.float64
    mismatched = actual.view(np.int64) != expected.view(np.int64)
    assert not np.any(mismatched), (
        f"{int(np.sum(mismatched))} of {actual.size} values differ, "
        f"e.g. {actual[mismatched][:3]} vs {expected[mismatched][:3]}")


BETAS = (0.5, 1.0, 2.0, 3.7)


def _random_case(rng, beta):
    """Random ``(a, b)`` with |a| <= 1e3, exact zeros mixed in, any rank <= 3."""
    shape = tuple(int(n) for n in rng.integers(1, 40, size=rng.integers(0, 4)))
    a = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3.0, 2.5)
    a = np.clip(a, -1e3, 1e3)
    zeros = rng.random(shape) < 0.15
    a = np.where(zeros, 0.0, a)
    b = np.abs(a) / math.sqrt(beta)
    return np.asarray(a), np.asarray(b)


class TestKernelOracle:
    """The one-pass kernels equal the masked original bit for bit."""

    @pytest.mark.parametrize("beta", BETAS)
    def test_smoothed_phi_and_correction(self, beta):
        rng = np.random.default_rng(int(beta * 10))
        for _ in range(150):
            a, b = _random_case(rng, beta)
            _assert_bitwise(smoothed_phi(a, b), _oracle_smoothed_phi(a, b))
            positive = np.where(b < 1e-12, 1.0, b)
            _assert_bitwise(correction_term(a, positive),
                            _oracle_correction_term(a, positive))

    def test_return_type_matches(self):
        for a, b in [(0.5, 0.3), (np.array(-2.0), np.array(0.0)),
                     (np.array([1.0]), np.array([0.5]))]:
            assert type(smoothed_phi(a, b)) is type(_oracle_smoothed_phi(a, b))
            assert type(correction_term(a, 0.7)) is type(_oracle_correction_term(a, 0.7))

    @pytest.mark.parametrize("beta", BETAS)
    def test_scalar_a_broadcast_against_array_b(self, beta):
        rng = np.random.default_rng(7)
        b = np.abs(rng.standard_normal((5, 7))) * 30.0 / math.sqrt(beta)
        b[0, :3] = 0.0
        for a in (0.0, 0.3, -1.7, 250.0, -999.0):
            _assert_bitwise(smoothed_phi(a, b), _oracle_smoothed_phi(a, b))
            _assert_bitwise(smoothed_phi(np.array(a), b.T), _oracle_smoothed_phi(np.array(a), b.T))
            _assert_bitwise(smoothed_phi(b, abs(a)), _oracle_smoothed_phi(b, abs(a)))
            _assert_bitwise(correction_term(a, b + 0.1), _oracle_correction_term(a, b + 0.1))

    @pytest.mark.parametrize("a, b", [(0.0, 0.0), (1.3, 0.0), (-3.0, 0.0),
                                      (0.0, 2.0), (0.7, 0.4), (-1e3, 1e3)])
    def test_zero_dimensional(self, a, b):
        _assert_bitwise(smoothed_phi(np.array(a), np.array(b)),
                        _oracle_smoothed_phi(np.array(a), np.array(b)))

    @pytest.mark.parametrize("beta", BETAS)
    def test_influence_and_estimate_columns(self, beta):
        rng = np.random.default_rng(int(beta * 100))
        for scale in (0.05, 1.0, 7.5):
            est = CatoniEstimator(scale=scale, beta=beta)
            X = rng.standard_normal((60, 9)) * rng.choice([1e-2, 1.0, 30.0], size=9)
            X[rng.random(X.shape) < 0.1] = 0.0
            X = np.clip(X, -1e3 * scale, 1e3 * scale)
            _assert_bitwise(est.influence(X), _oracle_influence(est, X))
            _assert_bitwise(est.influence(X[:, 0]), _oracle_influence(est, X[:, 0]))
            _assert_bitwise(est.estimate_columns(X),
                            np.mean(_oracle_influence(est, X), axis=0))


class TestFarTail:
    """Huge inputs: the influence stays finite and bounded; the far tail uses the tail limit."""

    @staticmethod
    def _quadrature(a, b):
        # The integrand is a step of width ~1/b; a fine grid keeps the
        # trapezoid error well below the tolerance.
        with np.errstate(over="ignore", invalid="ignore"):
            return smoothed_phi_quadrature(a, b, n_points=2_000_001)

    @pytest.mark.parametrize("a, b", [(1e200, 1e200), (-1e200, 1e200),
                                      (1e150, 1e150 / math.sqrt(2.0)),
                                      (6e102, 6e102), (1e300, 1e300)])
    def test_overflowing_closed_form_uses_the_tail_limit(self, a, b):
        value = float(smoothed_phi(np.array(a), np.array(b)))
        assert value == pytest.approx(self._quadrature(a, b), abs=3e-6)

    @pytest.mark.parametrize("a, b", [(1e4, 1e4), (1e6, 1e6), (-1e4, 1e4),
                                      (1e4, 1e4 / math.sqrt(2.0)),
                                      (1e6, 1e6 / math.sqrt(2.0))])
    def test_cancelling_closed_form_matches_quadrature(self, a, b):
        value = float(smoothed_phi(np.array(a), np.array(b)))
        assert value == pytest.approx(self._quadrature(a, b), abs=3e-6)

    @pytest.mark.parametrize("x", [1e4, 1e6, 6e102, 1e300, -1e300,
                                   np.finfo(float).max])
    def test_influence_finite_and_bounded_for_huge_samples(self, x):
        value = CatoniEstimator(scale=1.0).influence(np.array([x, 0.5, -x]))
        assert np.all(np.isfinite(value))
        assert np.all(np.abs(value) <= PHI_BOUND)

    def test_private_mean_of_a_huge_sample_is_finite(self):
        est = CatoniEstimator(scale=1.0)
        x = np.array([1e300, 0.3, -0.2])
        assert np.isfinite(est.estimate(x))
        assert np.all(np.isfinite(est.estimate_columns(np.stack([x, -x], axis=1))))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_influence_rejects_non_finite_samples(self, bad):
        with pytest.raises(ValueError, match="finite"):
            CatoniEstimator(scale=1.0).influence(np.array([1.0, bad]))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_influence_rejects_overflowing_scaled_samples(self):
        with pytest.raises(ValueError, match="overflow"):
            CatoniEstimator(scale=1e-10).influence(np.array([1e300]))

    def test_rejects_nan_b(self):
        with pytest.raises(ValueError, match="non-negative"):
            smoothed_phi(0.5, np.nan)
