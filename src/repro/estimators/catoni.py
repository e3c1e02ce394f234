"""Catoni–Giulini robust mean estimation with multiplicative-noise smoothing.

This module implements the robust one-dimensional mean estimator of the
paper's equations (1)–(5), which is the statistical engine behind
Algorithms 1 and 5:

1. **Scaling and truncation** — each sample is divided by a scale ``s``
   and passed through the bounded influence function ``phi`` (eq. 2);
2. **Noise multiplication** — each sample is multiplied by ``1 + eta``
   with ``eta ~ N(0, 1/beta)``;
3. **Noise smoothing** — the multiplicative noise is integrated out in
   closed form (eq. 5), yielding the smoothed influence

   .. math:: E_\\eta\\,\\varphi(a + b\\sqrt{\\beta}\\,\\eta)
             = a\\Big(1 - \\frac{b^2}{2}\\Big) - \\frac{a^3}{6} + \\hat C(a, b),

   with ``a = x/s`` and ``b = |x| / (s sqrt(beta))`` and the correction
   term ``Ĉ(a, b)`` given explicitly in the paper's appendix (T1..T5).

The decisive property for privacy is that ``|phi| <= 2*sqrt(2)/3``
pointwise, hence the smoothed influence obeys the same bound and the
estimator's value moves by at most ``4*sqrt(2)*s / (3*n)`` when one
sample changes (the sensitivity used by the exponential mechanism in
Algorithm 1 and by Peeling in Algorithm 5).  We additionally *clip* the
computed influence to the theoretical bound so the sensitivity holds
numerically, not just analytically.  Far in the tail the closed form
cancels catastrophically (from ``max(|a|, b) ~ 1e4``) and then
overflows to NaN (past ``|a| ~ 6e102``), which the clip would pass
through; there the Gaussian-tail limit ``PHI_BOUND * (2 Phi(a/b) - 1)``
is used instead, and NaN ``b`` and non-finite samples are rejected, so
the influence is finite and bounded for every input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .._validation import check_positive

#: Pointwise bound on the influence function: ``|phi(u)| <= PHI_BOUND``.
PHI_BOUND = 2.0 * math.sqrt(2.0) / 3.0

#: The truncation knee of ``phi``: ``phi`` is the cubic ``u - u^3/6``
#: on ``[-sqrt(2), sqrt(2)]`` and saturates outside.
PHI_KNEE = math.sqrt(2.0)

#: :func:`smoothed_phi` switches from the closed form to the
#: Gaussian-tail limit where ``max(|a|, b)`` reaches this value.
_TAIL_SWITCH = 1e4

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _ndtr(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF: the ufunc scipy's ``norm.cdf`` calls, bit for bit.

    ``scipy.special`` is imported on first use, so that starting a
    ``repro`` process (CLI, server, fleet worker) loads no scipy at all.
    """
    from scipy.special import ndtr

    return ndtr(x)


def phi(u: np.ndarray) -> np.ndarray:
    """The Catoni soft-truncation influence function of eq. (2).

    .. math::
        \\varphi(u) = \\begin{cases}
            u - u^3/6 & -\\sqrt2 \\le u \\le \\sqrt2 \\\\
            2\\sqrt2/3 & u > \\sqrt2 \\\\
            -2\\sqrt2/3 & u < -\\sqrt2
        \\end{cases}

    Vectorised; returns an array of the same shape as ``u``.
    """
    u = np.asarray(u, dtype=float)
    core = u - u**3 / 6.0
    return np.where(u > PHI_KNEE, PHI_BOUND, np.where(u < -PHI_KNEE, -PHI_BOUND, core))


def _correction(a: np.ndarray, b: np.ndarray, a2: np.ndarray,
                a3_6: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """``Ĉ(a, b)`` given the shared powers ``a**2``, ``a**3 / 6`` and ``b**2``.

    Each power is computed once by the caller and shared with the main
    term.  The sum runs ``T1 + T2 + ... + T5`` left to right, as written.
    """
    v_minus = (PHI_KNEE - a) / b
    v_plus = (PHI_KNEE + a) / b
    f_minus = _ndtr(-v_minus)
    f_plus = _ndtr(-v_plus)
    v_minus2 = v_minus**2
    v_plus2 = v_plus**2
    e_minus = np.exp(-0.5 * v_minus2)
    e_plus = np.exp(-0.5 * v_plus2)
    f_sum = f_minus + f_plus

    out = PHI_BOUND * (f_minus - f_plus)
    out += -(a - a3_6) * f_sum
    out += b / _SQRT_2PI * (1.0 - a2 / 2.0) * (e_plus - e_minus)
    out += (a * b2 / 2.0) * (f_sum + (v_plus * e_plus + v_minus * e_minus) / _SQRT_2PI)
    out += b**3 / (6.0 * _SQRT_2PI) * ((2.0 + v_minus2) * e_minus - (2.0 + v_plus2) * e_plus)
    return out


def _flat_pair(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray, Tuple[int, ...]]:
    """Broadcast ``a`` and ``b`` and flatten both to contiguous 1-D arrays.

    Returns the broadcast shape too; 1-D arrays take in-place updates even
    for 0-d inputs, and ``reshape(shape)[()]`` restores the caller's shape
    (a numpy scalar for 0-d, as before).
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    return a.ravel(), b.ravel(), a.shape


def correction_term(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The closed-form correction ``Ĉ(a, b)`` from the paper's appendix.

    With ``V∓ = (sqrt(2) ∓ a)/b``, ``F∓ = Phi(-V∓)`` and
    ``E∓ = exp(-V∓^2/2)`` (``Phi`` the standard normal CDF), the
    correction is the sum ``T1 + ... + T5`` reproduced verbatim from the
    appendix.  It accounts for the probability mass of the smoothing
    noise that pushes the argument of ``phi`` past the saturation knees.

    ``b`` must be strictly positive; callers handle the ``b -> 0``
    degenerate case (no smoothing noise) by falling back to ``phi(a)``.
    """
    a, b, shape = _flat_pair(a, b)
    return _correction(a, b, a**2, a**3 / 6.0, b**2).reshape(shape)[()]


def smoothed_phi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Closed form of ``E_xi[phi(a + b*xi)]`` for ``xi ~ N(0, 1)`` (eq. 5).

    Parameters
    ----------
    a:
        Location ``x / s`` of each (rescaled) sample.
    b:
        Noise amplitude ``|x| / (s * sqrt(beta))``; must be ``>= 0``
        (NaN is rejected).  Entries with ``b == 0`` fall back to the
        un-smoothed ``phi(a)``.

    Returns
    -------
    numpy.ndarray
        The smoothed influence, clipped into ``[-PHI_BOUND, PHI_BOUND]``
        (the clip removes only floating-point overshoot — the exact
        expectation already satisfies the bound because ``phi`` does).
        Where ``max(|a|, b) >= 1e4`` the value is the Gaussian-tail
        limit ``PHI_BOUND * (2 Phi(a/b) - 1)``: there ``phi`` is
        saturated for all but a vanishing share of the noise, while the
        closed form cancels catastrophically (its error against
        quadrature is >= 3e-5 at 1e4 and sign-wrong by 1e6) and
        overflows past ``|a|`` ~6e102.
    """
    a, b, shape = _flat_pair(a, b)
    if not np.all(b >= 0):
        raise ValueError("b must be non-negative")
    # One pass over every entry: degenerate entries compute with b = 1 and
    # are overwritten by phi(a) at the end, instead of a gather/scatter.
    degenerate = b < 1e-12
    any_degenerate = bool(degenerate.any())
    if any_degenerate:
        b = np.where(degenerate, 1.0, b)
    # Far-tail entries (cancelling or overflowing) are replaced by the
    # tail limit just below.
    with np.errstate(over="ignore", invalid="ignore"):
        a3_6 = a**3 / 6.0
        b2 = b**2
        out = a * (1.0 - b2 / 2.0) - a3_6
        out += _correction(a, b, a**2, a3_6, b2)
    far = np.maximum(np.abs(a), b) >= _TAIL_SWITCH
    if far.any():
        out[far] = PHI_BOUND * (2.0 * _ndtr(a[far] / b[far]) - 1.0)
    if any_degenerate:
        out[degenerate] = phi(a[degenerate])
    np.clip(out, -PHI_BOUND, PHI_BOUND, out=out)
    return out.reshape(shape)[()]


def smoothed_phi_quadrature(a: float, b: float, n_points: int = 20001,
                            half_width: float = 12.0) -> float:
    """Numerical reference for :func:`smoothed_phi` via trapezoid quadrature.

    Exists for testing: the property-based suite checks the closed form
    against this quadrature on random ``(a, b)``.
    """
    if b < 1e-12:
        return float(phi(np.asarray(a)))
    xi = np.linspace(-half_width, half_width, n_points)
    weights = np.exp(-0.5 * xi**2) / _SQRT_2PI
    values = phi(a + b * xi)
    return float(np.trapezoid(values * weights, xi))


@dataclass(frozen=True)
class CatoniEstimator:
    """The three-step robust mean estimator of eqs. (1)–(5).

    Parameters
    ----------
    scale:
        The truncation scale ``s > 0``.  Larger scales truncate less
        (lower bias, higher sensitivity); the theorems pick ``s`` to
        balance the estimator's bias/variance against the DP noise.
    beta:
        Inverse variance of the multiplicative smoothing noise
        ``eta ~ N(0, 1/beta)``.  The paper always sets ``beta = O(1)``;
        the default matches the theory sections.
    """

    scale: float
    beta: float = 1.0

    def __post_init__(self) -> None:
        check_positive(self.scale, "scale")
        check_positive(self.beta, "beta")

    def influence(self, samples: np.ndarray) -> np.ndarray:
        """Per-sample smoothed influence ``s * E_eta phi((x + eta x)/s)``.

        Each returned entry lies in ``[-s*PHI_BOUND, s*PHI_BOUND]``, so
        replacing one sample moves the *mean* of the influences by at most
        :meth:`sensitivity` — this is the quantity private algorithms add
        noise to.  Raises ``ValueError`` on a non-finite sample (or one
        whose ``x / scale`` overflows) rather than return NaN: one such
        sample would otherwise turn a released noisy mean into NaN.
        """
        x = np.asarray(samples, dtype=float)
        a = x / self.scale
        b = np.abs(x) / (self.scale * math.sqrt(self.beta))
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("samples must be finite, and x / scale must not overflow")
        return self.scale * smoothed_phi(a, b)

    def estimate(self, samples: np.ndarray) -> float:
        """Robust mean estimate ``(s/n) * sum_i E_eta phi((x_i + eta x_i)/s)``."""
        x = np.asarray(samples, dtype=float)
        if x.ndim != 1 or x.size == 0:
            raise ValueError(f"samples must be a non-empty 1-D array, got shape {x.shape}")
        return float(np.mean(self.influence(x)))

    def estimate_columns(self, samples: np.ndarray) -> np.ndarray:
        """Apply the estimator independently to each column of a matrix.

        This is the coordinate-wise use in Algorithms 1 and 5, where the
        columns are the per-sample partial derivatives of the loss.
        """
        x = np.asarray(samples, dtype=float)
        if x.ndim != 2 or x.size == 0:
            raise ValueError(f"samples must be a non-empty 2-D array, got shape {x.shape}")
        return np.mean(self.influence(x), axis=0)

    def sensitivity(self, n_samples: int) -> float:
        """ℓ∞ sensitivity of the estimate to one sample change: ``4√2·s/(3n)``."""
        if n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {n_samples}")
        return 4.0 * math.sqrt(2.0) * self.scale / (3.0 * n_samples)

    def error_bound(self, n_samples: int, second_moment: float,
                    failure_probability: float) -> float:
        """High-probability deviation bound of Lemma 4 of the paper.

        With probability at least ``1 - zeta``,

        .. math:: |\\hat x(s,\\beta) - E x| \\le
                  \\frac{\\tau}{2s}\\Big(\\frac1\\beta + 1\\Big)
                  + \\frac{s}{n}\\Big(\\frac\\beta2 + \\log\\frac2\\zeta\\Big).
        """
        check_positive(second_moment, "second_moment")
        zeta = float(failure_probability)
        if not 0 < zeta < 1:
            raise ValueError(f"failure_probability must be in (0,1), got {zeta}")
        bias = second_moment / (2.0 * self.scale) * (1.0 / self.beta + 1.0)
        deviation = self.scale / n_samples * (self.beta / 2.0 + math.log(2.0 / zeta))
        return bias + deviation

    def noisy_estimate(self, samples: np.ndarray, noise_draws: np.ndarray) -> float:
        """Monte-Carlo (un-smoothed) estimator of eq. (3), mainly for tests.

        ``noise_draws`` are explicit multiplicative noises ``eta_i``; the
        smoothed estimator is the expectation of this quantity over
        ``eta_i ~ N(0, 1/beta)``.
        """
        x = np.asarray(samples, dtype=float)
        eta = np.asarray(noise_draws, dtype=float)
        if x.shape != eta.shape:
            raise ValueError("samples and noise_draws must have matching shapes")
        return float(self.scale * np.mean(phi((x + eta * x) / self.scale)))


def optimal_scale(n_samples: int, second_moment: float,
                  failure_probability: float, beta: float = 1.0) -> float:
    """Scale minimising the Lemma 4 bound: ``s* = sqrt(n tau (1+1/beta) / (beta + 2 log(2/zeta)))``.

    Setting the derivative of the bound in :meth:`CatoniEstimator.error_bound`
    to zero balances the bias ``tau(1+1/beta)/(2s)`` against the deviation
    ``s(beta/2 + log(2/zeta))/n``.
    """
    check_positive(second_moment, "second_moment")
    check_positive(beta, "beta")
    zeta = float(failure_probability)
    if not 0 < zeta < 1:
        raise ValueError(f"failure_probability must be in (0,1), got {zeta}")
    numerator = n_samples * second_moment * (1.0 + 1.0 / beta)
    denominator = beta + 2.0 * math.log(2.0 / zeta)
    return math.sqrt(numerator / denominator)


from ..registry import ESTIMATORS

ESTIMATORS.register("catoni", CatoniEstimator)
