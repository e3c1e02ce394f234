"""Vectorized kernels checked bit for bit against the loops they replaced.

* **the Algorithm 2 loop** — ``HeavyTailedPrivateLasso.fit`` runs its
  gradient in Gram form; it selects the same vertices, returns the same
  bits and leaves the Generator in the same state as the direct-form
  reference loop kept here as an oracle.
* **column-wise estimators** — ``coordinatewise`` fast paths equal the
  per-column loop, errors included.
* **finite differences** — ``finite_difference_gradient`` equals the
  per-coordinate loop.
* **hypercube geometry** — the matrix-free corners, scores and vertices
  equal the dense construction.
"""

import math

import numpy as np
import pytest
from scipy.special import logsumexp

from repro.estimators.baseline_means import (
    coordinatewise,
    empirical_mean,
    median_of_means,
    trimmed_mean,
)
from repro.core import HeavyTailedPrivateLasso
from repro.geometry import Hypercube, L1Ball, hypercube
from repro.losses import SquaredLoss
from repro.losses.base import finite_difference_gradient


def _direct_lasso(solver, X, y, rng):
    """Reference Algorithm 2: direct-form gradient, scipy sampler.

    The loop ``HeavyTailedPrivateLasso.fit`` used to run, from the
    paper's formulas: shrink at ``K``, gradient ``2 X̃ᵀ(X̃w − ỹ) / n``,
    exponential mechanism normalised by ``scipy.special.logsumexp`` and
    drawn by ``Generator.choice``.  Returns ``(w, selected vertices)``.
    """
    n = X.shape[0]
    schedule = solver.resolve_schedule(n)
    T, K = schedule.n_iterations, schedule.threshold
    X_shrunk = np.sign(X) * np.minimum(np.abs(X), K)
    y_shrunk = np.sign(y) * np.minimum(np.abs(y), K)
    sensitivity = 4.0 * solver.polytope.l1_diameter() * K**2 / n
    eps_step = solver.epsilon / (
        2.0 * math.sqrt(2.0 * T * math.log(1.0 / solver.delta)))
    w = solver.polytope.initial_point()
    selected = []
    for t in range(T):
        g = 2.0 * (X_shrunk.T @ (X_shrunk @ w - y_shrunk)) / n
        logits = (eps_step / (2.0 * sensitivity)) * \
            solver.polytope.vertex_scores(g)
        probs = np.exp(logits - logsumexp(logits))
        index = int(rng.choice(logits.size, p=probs / probs.sum()))
        selected.append(index)
        step = 2.0 / (t + 3.0)  # the paper's eta_t, first update 2/3
        w = (1.0 - step) * w + step * solver.polytope.vertex(index)
    return w, selected


def _lasso_data(seed, n, d):
    """Heavy-tailed linear data; the Generator continues into the fit."""
    rng = np.random.default_rng(seed)
    X = rng.lognormal(sigma=0.6, size=(n, d))
    w_star = rng.dirichlet(np.ones(d)) * rng.choice([-1.0, 1.0], size=d)
    return X, X @ w_star + rng.standard_t(df=3.0, size=n), rng


#: (n, d, polytope): shapes across the catalog's range, one ball radius
#: other than 1, and one constraint set that is not an l1 ball.
_ORACLE_CASES = [
    (300, 5, L1Ball(5)),
    (1500, 12, L1Ball(12)),
    (4000, 40, L1Ball(40, radius=2.5)),
    (800, 5, hypercube(5, radius=0.5)),
]


def _case_id(value):
    """Test id part: sizes as numbers, the polytope by its class."""
    return str(value) if isinstance(value, int) else type(value).__name__


class TestLassoLoopMatchesDirectForm:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n,d,polytope", _ORACLE_CASES, ids=_case_id)
    def test_fit_matches_oracle(self, seed, n, d, polytope):
        solver = HeavyTailedPrivateLasso(polytope, epsilon=1.0, delta=1e-5)
        X, y, rng = _lasso_data(seed, n, d)
        X2, y2, rng2 = _lasso_data(seed, n, d)
        w_ref, selected_ref = _direct_lasso(solver, X, y, rng)
        result = solver.fit(X2, y2, rng=rng2)
        assert result.metadata["selected_vertices"] == selected_ref
        assert np.array_equal(result.w, w_ref)
        assert rng2.random() == rng.random()  # same stream afterwards


class TestColumnwiseFastPaths:
    @pytest.mark.parametrize("shape", [(1, 1), (7, 3), (40, 11), (200, 5)])
    def test_empirical_mean_bit_identical(self, shape):
        x = np.random.default_rng(3).lognormal(size=shape)
        loop = np.array([empirical_mean(x[:, j]) for j in range(x.shape[1])])
        fast = coordinatewise(empirical_mean, x)
        assert np.array_equal(loop, fast)
        assert np.array_equal(np.signbit(loop), np.signbit(fast))

    @pytest.mark.parametrize("frac", [0.0, 0.1, 0.25, 0.49])
    def test_trimmed_mean_bit_identical(self, frac):
        x = np.random.default_rng(4).standard_t(df=3, size=(57, 9))
        loop = np.array([trimmed_mean(x[:, j], trim_fraction=frac)
                         for j in range(x.shape[1])])
        fast = coordinatewise(trimmed_mean, x, trim_fraction=frac)
        assert np.array_equal(loop, fast)

    def test_non_finite_falls_back_to_loop_errors(self):
        x = np.ones((4, 2))
        x[1, 1] = np.inf
        from repro._validation import ConfigurationError
        with pytest.raises(ConfigurationError):
            coordinatewise(empirical_mean, x)

    def test_bad_trim_fraction_error_unchanged(self):
        x = np.ones((6, 2))
        with pytest.raises(ValueError, match="trim_fraction must be < 0.5"):
            coordinatewise(trimmed_mean, x, trim_fraction=0.5)

    def test_empty_column_error_unchanged(self):
        with pytest.raises(ValueError, match="non-empty"):
            coordinatewise(empirical_mean, np.empty((0, 3)))

    def test_unregistered_estimator_uses_loop(self):
        x = np.random.default_rng(5).lognormal(size=(32, 4))
        loop = np.array([median_of_means(x[:, j], rng=0)
                         for j in range(x.shape[1])])
        assert np.array_equal(coordinatewise(median_of_means, x, rng=0), loop)


class TestFiniteDifference:
    def test_matches_per_coordinate_loop(self):
        rng = np.random.default_rng(6)
        X = rng.lognormal(size=(25, 4))
        y = rng.normal(size=25)
        w = rng.normal(size=4)
        loss = SquaredLoss()
        step = 1e-6
        old = np.zeros(4)
        for j in range(4):  # the loop the batched construction replaced
            bump = np.zeros(4)
            bump[j] = step
            old[j] = (loss.value(w + bump, X, y) -
                      loss.value(w - bump, X, y)) / (2 * step)
        assert np.array_equal(finite_difference_gradient(loss, w, X, y), old)


class TestHypercube:
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("radius", [1.0, 0.5, 2.7])
    def test_corners_bit_identical_to_comprehension(self, d, radius):
        old = np.array([[radius if (mask >> j) & 1 else -radius
                         for j in range(d)] for mask in range(2 ** d)])
        assert np.array_equal(hypercube(d, radius).vertices, old)

    def test_vertex_scores_matrix_free(self):
        cube = hypercube(7, 1.5)
        g = np.random.default_rng(8).normal(size=7)
        scores = cube.vertex_scores(g)
        assert cube._corner_cache is None  # never materialized
        dense = -cube.vertices @ g
        assert np.allclose(scores, dense)
        assert int(np.argmax(scores)) == int(np.argmax(dense))

    def test_vertex_matrix_free(self):
        cube = hypercube(6)
        for index in (0, 1, 37, 63):
            bits = [(index >> j) & 1 for j in range(6)]
            expected = np.array([1.0 if b else -1.0 for b in bits])
            assert np.array_equal(cube.vertex(index), expected)
        assert cube._corner_cache is None

    def test_vertex_index_out_of_range(self):
        with pytest.raises(IndexError):
            hypercube(3).vertex(8)

    def test_linear_minimizer_agrees_with_dense(self):
        cube = hypercube(5, 0.8)
        g = np.random.default_rng(9).normal(size=5)
        index, vertex = cube.linear_minimizer(g)
        dense = np.array([[0.8 if (m >> j) & 1 else -0.8 for j in range(5)]
                          for m in range(32)])
        assert index == int(np.argmin(dense @ g))
        assert np.array_equal(vertex, dense[index])

    def test_generic_operations_trigger_cache(self):
        cube = hypercube(3)
        assert cube.l1_diameter() == 6.0
        assert cube._corner_cache is not None
        assert cube.contains(np.zeros(3))

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="d <= 16"):
            Hypercube(17)

    def test_is_a_polytope(self):
        cube = hypercube(2)
        assert cube.dimension == 2
        assert cube.n_vertices == 4
