"""Distribution fitting for inter-arrival times.

The paper positions itself against prior work that statistically models
the failure process -- e.g. fitting Weibull/lognormal/gamma/exponential
distributions to the time between failures [12] and analysing
autocorrelation.  This module supplies that classical toolkit so the
library covers both lenses: maximum-likelihood fits for the four
standard reliability distributions, Kolmogorov-Smirnov goodness of fit,
and AIC-based model selection.

All four families are fitted by one kernel over one prepared sample
(:class:`_Sample`): the sample is validated, sorted once and its logs
taken once.  Exponential, lognormal and gamma have exact maximum-
likelihood estimates (the mean; the mean and population standard
deviation of ``log x``; Newton's method on ``log k - psi(k) = log mean
- mean log x``).  Weibull has none in closed form and keeps scipy's
``weibull_min.fit(floc=0)``, given the sample in its original order
because the optimiser's path depends on the order of its sums.
Log-likelihoods and CDFs are evaluated in numpy with scipy's formulas,
every KS statistic comes from the one sorted sample, and the KS
p-values are ``kstwo.sf(d, n)``, as in ``scipy.stats.kstest``.  The
exponential, lognormal and Weibull KS tests are scipy's to the last
bit; ``tests/stats/reference_distfit.py`` keeps scipy's generic
fit/logpdf/kstest path as the oracle.

A Weibull shape parameter below 1 means a *decreasing hazard rate* --
failures cluster, the signature finding of large-scale failure studies
and consistent with this paper's correlation results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special as _special
from scipy import stats as _scipy_stats


class DistFitError(ValueError):
    """Raised on invalid samples or unknown families."""


#: The distribution families fitted, in the order results are reported.
FAMILIES: tuple[str, ...] = ("exponential", "weibull", "lognormal", "gamma")

_SCIPY_DISTS = {
    "exponential": _scipy_stats.expon,
    "weibull": _scipy_stats.weibull_min,
    "lognormal": _scipy_stats.lognorm,
    "gamma": _scipy_stats.gamma,
}

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True, slots=True)
class DistributionFit:
    """One fitted distribution family.

    Attributes:
        family: distribution name (see :data:`FAMILIES`).
        params: scipy shape/loc/scale parameter tuple (loc fixed to 0).
        log_likelihood: maximized log-likelihood.
        aic: Akaike information criterion (lower is better).
        ks_statistic: Kolmogorov-Smirnov distance to the sample.
        ks_p_value: KS test p-value (small = poor fit).
        n: sample size.
    """

    family: str
    params: tuple[float, ...]
    log_likelihood: float
    aic: float
    ks_statistic: float
    ks_p_value: float
    n: int

    @property
    def mean(self) -> float:
        """Mean of the fitted distribution."""
        return float(_SCIPY_DISTS[self.family](*self.params).mean())

    @property
    def shape(self) -> float | None:
        """Shape parameter, when the family has one.

        Weibull: k (< 1 means decreasing hazard).  Lognormal: sigma.
        Gamma: k.  Exponential: None.
        """
        if self.family == "exponential":
            return None
        return float(self.params[0])

    @property
    def decreasing_hazard(self) -> bool | None:
        """Whether the fitted law implies a decreasing hazard rate.

        Defined for Weibull (shape < 1) and gamma (shape < 1); None for
        the others (exponential is constant by definition; lognormal is
        non-monotone).
        """
        if self.family in ("weibull", "gamma"):
            return self.shape is not None and self.shape < 1.0
        if self.family == "exponential":
            return False
        return None


def _validate_sample(samples: np.ndarray) -> np.ndarray:
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size < 8:
        raise DistFitError("need a 1-D sample of at least 8 inter-arrivals")
    if not np.isfinite(x).all():
        raise DistFitError("sample must be finite")
    if (x <= 0).any():
        raise DistFitError(
            "inter-arrival times must be positive; drop simultaneous events"
        )
    if x.min() == x.max():
        raise DistFitError(
            "sample has zero spread; no two-parameter family can be fitted"
        )
    return x


class _Sample:
    """A validated sample, prepared once for every family's fit.

    ``x`` and ``log_x`` keep the caller's order (the parameter estimates
    and log-likelihood sums run over it, as scipy's do); ``sorted_x``
    holds the same values in ascending order, for the KS statistics.
    """

    def __init__(self, samples: np.ndarray) -> None:
        self.x = _validate_sample(samples)
        self.n = int(self.x.size)
        self.log_x = np.log(self.x)
        self.sorted_x = np.sort(self.x)
        self.mean = self.x.mean()
        self.mean_log = self.log_x.mean()


#: A family kernel: ``(params, per-point log-pdf, CDF at sorted_x)``.
_Kernel = Callable[[_Sample], tuple[tuple[float, ...], np.ndarray, np.ndarray]]


def _exponential(s: _Sample):
    scale = s.mean
    logpdf = -(s.x / scale) - np.log(scale)
    cdf = -_special.expm1(-(s.sorted_x / scale))
    return (0.0, scale), logpdf, cdf


def _weibull(s: _Sample):
    c, loc, scale = _scipy_stats.weibull_min.fit(s.x, floc=0.0)
    y = s.x / scale
    logpdf = np.log(c) + _special.xlogy(c - 1, y) - np.power(y, c) - np.log(
        scale
    )
    cdf = -_special.expm1(-np.power(s.sorted_x / scale, c))
    return (c, loc, scale), logpdf, cdf


def _lognormal(s: _Sample):
    scale = np.exp(s.mean_log)
    log_scale = np.log(scale)
    log_y = s.log_x - log_scale
    sigma = np.sqrt(np.mean(log_y**2))
    logpdf = -(log_y**2) / (2 * sigma**2) - (
        np.log(sigma) + s.log_x + _HALF_LOG_2PI
    )
    # scipy's CDF logs the scaled sample; so does this one, because
    # kstwo.sf amplifies a last-bit change of the KS distance.
    cdf = _special.ndtr(np.log(s.sorted_x / scale) / sigma)
    return (sigma, 0.0, scale), logpdf, cdf


def _gamma_shape(log_gap: float) -> float:
    """The root ``k`` of ``log k - psi(k) = log_gap`` by Newton's method.

    Starts from the closed-form approximation scipy brackets its own
    root-finder with, which is within a few per cent of the root, and
    stops once a step is at the rounding noise of ``log k - psi(k)``:
    either below 1e-14 of ``k``, or no smaller than the step before it.
    For a large shape (a sample with little spread) the function is a
    difference of two numbers near ``log k``, and one ulp of that noise
    moves the root by more than 1e-14 of ``k``; Newton then wanders
    around the root instead of contracting, and the last contracting
    iterate is the root.
    """
    k = (3 - log_gap + math.sqrt((log_gap - 3) ** 2 + 24 * log_gap)) / (
        12 * log_gap
    )
    last_step = math.inf
    for _ in range(50):
        f = math.log(k) - float(_special.digamma(k)) - log_gap
        step = f / (1.0 / k - float(_special.polygamma(1, k)))
        if abs(step) >= abs(last_step):
            return k
        if step < k:
            k -= step
            last_step = step
        else:
            k /= 2
            last_step = math.inf
        if abs(step) <= 1e-14 * k:
            return k
    raise DistFitError("gamma shape estimate did not converge")


def _gamma(s: _Sample):
    log_gap = float(np.log(s.mean) - s.mean_log)
    if not log_gap > 0:
        # Jensen's gap is positive for any sample with spread; rounding
        # can cancel it on a near-constant one.
        raise DistFitError("gamma likelihood degenerate on this sample")
    a = _gamma_shape(log_gap)
    scale = s.mean / a
    log_scale = np.log(scale)
    logpdf = (
        (a - 1.0) * (s.log_x - log_scale)
        - s.x / scale
        - _special.gammaln(a)
        - log_scale
    )
    cdf = _special.gammainc(a, s.sorted_x / scale)
    return (a, 0.0, scale), logpdf, cdf


_KERNELS: dict[str, _Kernel] = {
    "exponential": _exponential,
    "weibull": _weibull,
    "lognormal": _lognormal,
    "gamma": _gamma,
}


def _ks_statistic(cdf: np.ndarray) -> float:
    """Two-sided KS distance of CDF values at the sorted sample."""
    n = cdf.size
    d_plus = (np.arange(1.0, n + 1) / n - cdf).max()
    d_minus = (cdf - np.arange(0.0, n) / n).max()
    return float(d_plus if d_plus > d_minus else d_minus)


def _fit(sample: _Sample, families: tuple[str, ...]) -> list[DistributionFit]:
    """Fit ``families`` to one prepared sample, in the given order."""
    rows = []
    for family in families:
        with np.errstate(divide="ignore"):
            params, logpdf, cdf = _KERNELS[family](sample)
        ll = float(np.sum(logpdf))
        if not math.isfinite(ll):
            raise DistFitError(f"{family} likelihood degenerate on this sample")
        rows.append((family, params, ll, _ks_statistic(cdf)))
    # One vectorised call: kstwo.sf is the cost floor of a fit.
    p_values = np.clip(
        _scipy_stats.kstwo.sf(np.array([row[3] for row in rows]), sample.n),
        0.0,
        1.0,
    )
    return [
        DistributionFit(
            family=family,
            params=tuple(float(p) for p in params),
            log_likelihood=ll,
            aic=2.0 * (1 if family == "exponential" else 2) - 2.0 * ll,
            ks_statistic=d,
            ks_p_value=float(p),
            n=sample.n,
        )
        for (family, params, ll, d), p in zip(rows, p_values)
    ]


def fit_family(samples: np.ndarray, family: str) -> DistributionFit:
    """Maximum-likelihood fit of one family (location fixed at zero)."""
    if family not in _KERNELS:
        raise DistFitError(f"unknown family {family!r}; choose from {FAMILIES}")
    return _fit(_Sample(samples), (family,))[0]


def fit_all(samples: np.ndarray) -> list[DistributionFit]:
    """Fit every family in :data:`FAMILIES`, ordered by ascending AIC."""
    fits = _fit(_Sample(samples), FAMILIES)
    fits.sort(key=lambda f: f.aic)
    return fits


def best_fit(samples: np.ndarray) -> DistributionFit:
    """The AIC-best family for a sample."""
    return fit_all(samples)[0]
