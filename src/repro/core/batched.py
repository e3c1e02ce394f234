"""Algorithm 2's Frank–Wolfe loop, for one trial or a stacked cell of them.

:func:`batch_fit_lasso` is the only iteration loop of
:class:`~repro.core.private_lasso.HeavyTailedPrivateLasso`: ``fit`` calls
it with one dataset, and the private-Lasso catalog families' batched
trial paths (``Scenario.batch_point``, see docs/engine.md "Batched
trials") call it with a grid cell's ``K`` datasets.

The per-iteration gradient ``2 X̃ᵀ(X̃ w − ỹ) / n`` is computed in Gram
form ``2 (G w − c) / n`` with ``G = X̃ᵀX̃`` and ``c = X̃ᵀỹ`` formed once
per trial, so the ``T``-step loop runs on stacked ``(K, d, d)`` tensors
instead of re-streaming the ``(n, d)`` data matrix twice per
iteration — 3–5× faster than the direct form even for one trial.
Per-trial randomness (one exponential-mechanism draw per iteration)
stays scalar and consumes each trial's Generator in trial order, so
stacking ``K`` trials gives each the bits it gets alone.

The Gram form is exact where it matters: the gradient enters the
result only through the exponential mechanism's *discrete* vertex
selection (the iterate moves to the selected vertex, never along the
gradient), and the selection is a CDF inversion whose outcome changes
only if an ulp-level perturbation crosses the trial's uniform draw — a
measure-zero boundary.  ``tests/test_batched.py`` checks the selected
vertices and iterates against the direct-form loop bit for bit, and the
bench ``run_id`` gate and CI's perf job hold the committed records.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..estimators.truncation import shrink_dataset
from ..privacy.mechanisms import ExponentialMechanism


def batch_fit_lasso(solver, datasets: Sequence[Tuple[np.ndarray, np.ndarray]],
                    rngs: Sequence[np.random.Generator],
                    w0: Optional[np.ndarray] = None,
                    on_step: Optional[Callable[[int, List[int], np.ndarray],
                                               None]] = None) -> np.ndarray:
    """Fit Algorithm 2 on ``K`` same-shaped datasets in one stacked loop.

    Parameters
    ----------
    solver:
        A configured :class:`~repro.core.private_lasso.HeavyTailedPrivateLasso`;
        its :meth:`plan` supplies ``T``, ``K``, the steps and the budget.
    datasets:
        ``K`` pairs ``(X, y)`` of identical shape — the trials of one
        grid cell (or the single dataset of a ``fit``).
    rngs:
        The trials' Generators; each is consumed by exactly one uniform
        draw per iteration.
    w0:
        Common starting point; defaults to ``polytope.initial_point()``.
    on_step:
        Optional ``on_step(t, chosen, ws)`` after every iteration, with
        the ``K`` selected vertex indices and the ``(K, d)`` iterates.

    Returns the ``(K, d)`` array of fitted weight vectors.
    """
    polytope = solver.polytope
    n = datasets[0][0].shape[0]
    plan = solver.plan(n)
    mechanism = ExponentialMechanism(epsilon=plan.per_iteration_epsilon,
                                     sensitivity=plan.sensitivity)

    d = polytope.dimension
    gram = np.empty((len(datasets), d, d))
    cross = np.empty((len(datasets), d))
    for k, (X, y) in enumerate(datasets):
        X_shrunk, y_shrunk = shrink_dataset(X, y, plan.threshold)
        gram[k] = X_shrunk.T @ X_shrunk
        cross[k] = X_shrunk.T @ y_shrunk

    start = polytope.initial_point() if w0 is None else w0
    w = np.tile(start, (len(datasets), 1))
    for t, step in enumerate(plan.steps):
        grads = 2.0 * (np.matmul(gram, w[..., None])[..., 0] - cross) / n
        chosen = [mechanism.select(polytope.vertex_scores(g), rng=rng)
                  for g, rng in zip(grads, rngs)]
        vertices = np.array([polytope.vertex(index) for index in chosen])
        w = (1.0 - step) * w + step * vertices
        if on_step is not None:
            on_step(t, chosen, w)
    return w
