"""Reference distribution fits: scipy's generic fit, logpdf and kstest.

The oracle for :mod:`repro.stats.distfit`.  Each family is fitted with
its scipy distribution's own ``fit(floc=0)``, scored with the frozen
distribution's ``logpdf`` and tested with ``scipy.stats.kstest``, one
family at a time.  The library's kernel must agree with it: exactly for
Weibull (the same optimiser), and to rounding for the three families
whose maximum-likelihood estimates it computes in closed form.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats as scipy_stats

from repro.stats.distfit import (
    FAMILIES,
    DistFitError,
    DistributionFit,
    _validate_sample,
)

SCIPY_DISTS = {
    "exponential": scipy_stats.expon,
    "weibull": scipy_stats.weibull_min,
    "lognormal": scipy_stats.lognorm,
    "gamma": scipy_stats.gamma,
}


def reference_fit_family(samples: np.ndarray, family: str) -> DistributionFit:
    """Maximum-likelihood fit of one family through scipy's generic path."""
    x = _validate_sample(samples)
    try:
        dist = SCIPY_DISTS[family]
    except KeyError as exc:
        raise DistFitError(
            f"unknown family {family!r}; choose from {FAMILIES}"
        ) from exc
    params = dist.fit(x, floc=0.0)
    frozen = dist(*params)
    with np.errstate(divide="ignore"):
        ll = float(np.sum(frozen.logpdf(x)))
    if not math.isfinite(ll):
        raise DistFitError(f"{family} likelihood degenerate on this sample")
    k = 1 if family == "exponential" else 2
    ks = scipy_stats.kstest(x, frozen.cdf)
    return DistributionFit(
        family=family,
        params=tuple(float(p) for p in params),
        log_likelihood=ll,
        aic=2.0 * k - 2.0 * ll,
        ks_statistic=float(ks.statistic),
        ks_p_value=float(ks.pvalue),
        n=int(x.size),
    )


def reference_fit_all(samples: np.ndarray) -> list[DistributionFit]:
    """Every family through the reference path, ordered by ascending AIC."""
    fits = [reference_fit_family(samples, family) for family in FAMILIES]
    fits.sort(key=lambda f: f.aic)
    return fits
