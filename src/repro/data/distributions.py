"""Heavy-tailed samplers used in the paper's experiments (Section 6).

Each sampler takes an explicit :class:`numpy.random.Generator` and a
shape, and is accompanied where available by the closed-form moments the
assumptions reference, so tests can verify the generated data actually
has the claimed tail behaviour.

The paper's experiments draw features and noises from:

* ``Lognormal(0, 0.6)`` — Figures 1, 2, 5 (features);
* Student-t with 10 degrees of freedom — Figure 6 (features);
* ``Lognormal(0, 0.5)`` — Figures 7, 10 (noise);
* log-logistic with shape ``c = 0.1`` — Figure 8 (noise);
* log-gamma with shape ``c = 0.5`` — Figures 9, 11 (noise);
* logistic with ``(u, s) = (0, 0.5)`` — Figure 10 (noise);
* ``Laplace(scale 5)`` and ``N(0, 5)`` — Figures 7-11 (features).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .._validation import check_positive
from ..registry import DISTRIBUTIONS
from ..rng import SeedLike, ensure_rng

ShapeLike = Union[int, Tuple[int, ...]]


@DISTRIBUTIONS.register("lognormal")
def lognormal(rng: SeedLike, shape: ShapeLike, mu: float = 0.0,
              sigma: float = 0.6) -> np.ndarray:
    """Log-normal samples; the paper's default feature distribution.

    ``Lognormal(mu, sigma^2)`` has density
    ``exp(-(ln w - mu)^2 / (2 sigma^2)) / (w sigma sqrt(2 pi))``; all
    moments exist but grow like ``exp(k^2 sigma^2 / 2)`` — a classic
    "moderately heavy" tail.
    """
    check_positive(sigma, "sigma")
    return ensure_rng(rng).lognormal(mean=mu, sigma=sigma, size=shape)


def lognormal_moments(mu: float = 0.0, sigma: float = 0.6) -> Tuple[float, float]:
    """``(mean, second raw moment)`` of ``Lognormal(mu, sigma^2)``."""
    mean = math.exp(mu + sigma**2 / 2.0)
    second = math.exp(2.0 * mu + 2.0 * sigma**2)
    return mean, second


@DISTRIBUTIONS.register("student_t")
def student_t(rng: SeedLike, shape: ShapeLike, df: float = 10.0) -> np.ndarray:
    """Student-t samples (Figure 6 features).

    For ``df = 10`` the fourth moment exists (Assumption 3 holds) but the
    tails are polynomial — moments of order ``>= df`` diverge.
    """
    check_positive(df, "df")
    return ensure_rng(rng).standard_t(df, size=shape)


def student_t_second_moment(df: float = 10.0) -> float:
    """``E X^2 = df / (df - 2)`` for ``df > 2``."""
    if df <= 2:
        raise ValueError("the second moment only exists for df > 2")
    return df / (df - 2.0)


@DISTRIBUTIONS.register("log_logistic")
def log_logistic(rng: SeedLike, shape: ShapeLike, c: float = 0.1) -> np.ndarray:
    """Log-logistic samples with shape ``c`` (Figure 8 noise).

    PDF ``c w^{-c-1} (1 + w^{-c})^{-2}`` on ``w > 0`` (the scipy ``fisk``
    parameterisation).  For ``c <= 1`` even the *mean* is infinite — the
    most extreme tail in the paper's experiments.  Sampled by inverse CDF:
    ``W = (U / (1-U))^{1/c}``.
    """
    check_positive(c, "c")
    u = ensure_rng(rng).uniform(size=shape)
    return (u / (1.0 - u)) ** (1.0 / c)


@DISTRIBUTIONS.register("log_gamma")
def log_gamma(rng: SeedLike, shape: ShapeLike, c: float = 0.5) -> np.ndarray:
    """Log-gamma samples with shape ``c`` (Figures 9 and 11 noise).

    PDF ``exp(c w - e^w) / Gamma(c)`` on the real line: the *left* tail is
    heavy-ish and the distribution is strongly skewed.  Generated as
    ``log(Gamma(c, 1))``.
    """
    check_positive(c, "c")
    return np.log(ensure_rng(rng).gamma(shape=c, scale=1.0, size=shape))


def log_gamma_mean(c: float = 0.5) -> float:
    """``E log Gamma(c, 1) = digamma(c)``."""
    from scipy import special  # deferred: importing repro stays free of scipy

    check_positive(c, "c")
    return float(special.digamma(c))


@DISTRIBUTIONS.register("logistic")
def logistic(rng: SeedLike, shape: ShapeLike, loc: float = 0.0,
             scale: float = 0.5) -> np.ndarray:
    """Logistic-distribution samples (Figure 10 latent noise)."""
    check_positive(scale, "scale")
    return ensure_rng(rng).logistic(loc=loc, scale=scale, size=shape)


@DISTRIBUTIONS.register("laplace")
def laplace(rng: SeedLike, shape: ShapeLike, scale: float = 5.0) -> np.ndarray:
    """Laplace samples (Figure 11 features, ``Laplace(5)`` in the paper)."""
    check_positive(scale, "scale")
    return ensure_rng(rng).laplace(loc=0.0, scale=scale, size=shape)


@DISTRIBUTIONS.register("gaussian")
def gaussian(rng: SeedLike, shape: ShapeLike, scale: float = 1.0) -> np.ndarray:
    """Gaussian samples; ``N(0, 5)`` are the Figures 7-10 features.

    The paper writes ``N(0, 5)``; we follow the scale (standard
    deviation) reading, which its ``s* = 20``/``n = 5e4`` error levels
    are consistent with.
    """
    check_positive(scale, "scale")
    return ensure_rng(rng).normal(loc=0.0, scale=scale, size=shape)


@DISTRIBUTIONS.register("pareto")
def pareto(rng: SeedLike, shape: ShapeLike, tail_index: float = 2.5) -> np.ndarray:
    """Pareto samples with the given tail index (``P(X > t) ~ t^-a``).

    Not used by the paper's figures, but the canonical "only low moments
    exist" distribution; the test-suite uses it to probe the estimators
    under a pure power-law tail (finite second moment iff ``a > 2``).
    """
    check_positive(tail_index, "tail_index")
    return ensure_rng(rng).pareto(tail_index, size=shape) + 1.0


@dataclass(frozen=True)
class DistributionSpec:
    """A named, parameterised sampler — the unit the sweep configs use.

    Examples
    --------
    >>> spec = DistributionSpec("lognormal", {"sigma": 0.6})
    >>> x = spec.sample(np.random.default_rng(0), (100, 5))
    """

    name: str
    params: dict = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.name not in DISTRIBUTIONS:
            # ValueError (not the registry's KeyError) for backward
            # compatibility with existing callers and tests.
            raise ValueError(
                f"unknown distribution {self.name!r}; choose from "
                f"{sorted(DISTRIBUTIONS.names())}"
            )
        if self.params is None:
            object.__setattr__(self, "params", {})

    @classmethod
    def of(cls, spec: "Union[DistributionSpec, str, dict]"
           ) -> "DistributionSpec":
        """Coerce a name, a ``{"name": ..., **params}`` mapping, or a spec.

        The mapping form is what TOML/dict experiment specs naturally
        produce (``{name = "lognormal", sigma = 0.6}``); a bare name
        uses the sampler's default parameters.
        """
        if isinstance(spec, cls):
            return spec
        if isinstance(spec, str):
            return cls(spec, {})
        try:
            params = dict(spec)
        except TypeError:
            raise TypeError(
                f"distribution spec must be a DistributionSpec, a name, or "
                f"a mapping with a 'name' key, got {spec!r}") from None
        try:
            name = params.pop("name")
        except KeyError:
            raise TypeError(f"distribution mapping {spec!r} is missing its "
                            "'name' key") from None
        return cls(name, params)

    def sample(self, rng: SeedLike, shape: ShapeLike) -> np.ndarray:
        """Draw samples of the requested shape."""
        sampler = DISTRIBUTIONS.get(self.name)
        return sampler(ensure_rng(rng), shape, **self.params)

    def centered_sample(self, rng: SeedLike, shape: ShapeLike,
                        center_estimate_size: int = 200_000) -> np.ndarray:
        """Samples shifted to (approximately) zero mean.

        Heavy-tailed *noise* in a regression model should be centred or it
        biases the intercept; the shift is estimated once from a large
        auxiliary draw (deterministic given the rng), except for
        distributions with known means where the closed form is used.
        """
        rng = ensure_rng(rng)
        if self.name == "gaussian" or self.name == "laplace" or self.name == "logistic":
            shift = self.params.get("loc", 0.0)
        elif self.name == "lognormal":
            shift = lognormal_moments(self.params.get("mu", 0.0),
                                      self.params.get("sigma", 0.6))[0]
        elif self.name == "log_gamma":
            shift = log_gamma_mean(self.params.get("c", 0.5))
        else:
            aux = self.sample(rng, center_estimate_size)
            shift = float(np.median(aux))  # median: robust to infinite means
        return self.sample(rng, shape) - shift
