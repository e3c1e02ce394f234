"""The paper's algorithms: DP-FW, private LASSO, DP-IHT, Peeling.

* :class:`HeavyTailedDPFW` — Algorithm 1 (ε-DP Frank–Wolfe with Catoni
  gradient estimates over a polytope; Theorems 1–3).
* :class:`HeavyTailedPrivateLasso` — Algorithm 2 ((ε,δ)-DP Frank–Wolfe
  on shrunken data; Theorems 4–5).
* :class:`HeavyTailedSparseLinearRegression` — Algorithm 3 ((ε,δ)-DP
  truncated IHT; Theorems 6–7).
* :func:`peeling` — Algorithm 4 (private top-``s`` selection).
* :class:`HeavyTailedSparseOptimizer` — Algorithm 5 ((ε,δ)-DP robust IHT
  over the ℓ0 ball; Theorem 8).
"""

# An empty module (see its docstring), loaded with the package so that
# perfbench's layer table imports no new module when it resolves.
from . import batched  # noqa: F401
from .heavy_tailed_dp_fw import HeavyTailedDPFW
from .hyperparams import (
    DPFWSchedule,
    LassoSchedule,
    SparseLinearSchedule,
    SparseOptimizationSchedule,
    classic_fw_steps,
    dpfw_schedule,
    lasso_schedule,
    sparse_linear_schedule,
    sparse_optimization_schedule,
)
from .peeling import PeelingResult, dense_laplace_release, peeling, peeling_laplace_scale
from .private_lasso import HeavyTailedPrivateLasso
from .result import FitResult
from .sparse_linear_regression import HeavyTailedSparseLinearRegression
from .sparse_optimization import HeavyTailedSparseOptimizer

__all__ = [
    "DPFWSchedule",
    "FitResult",
    "HeavyTailedDPFW",
    "HeavyTailedPrivateLasso",
    "HeavyTailedSparseLinearRegression",
    "HeavyTailedSparseOptimizer",
    "LassoSchedule",
    "PeelingResult",
    "SparseLinearSchedule",
    "SparseOptimizationSchedule",
    "classic_fw_steps",
    "dense_laplace_release",
    "dpfw_schedule",
    "lasso_schedule",
    "peeling",
    "peeling_laplace_scale",
    "sparse_linear_schedule",
    "sparse_optimization_schedule",
]
