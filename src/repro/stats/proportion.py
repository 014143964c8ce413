"""Proportion estimation and comparison.

The paper's correlation analyses (Sections III, IV, VII, VIII) all reduce
to comparing two binomial proportions:

* a *conditional* probability -- the fraction of trigger events followed
  by a qualifying failure within a window -- against
* a *baseline* probability -- the fraction of random (node, window) tiles
  containing a qualifying failure,

with 95% confidence intervals on each and a two-sample hypothesis test on
their difference.  This module implements those primitives from scratch
(normal and Wilson intervals, the pooled two-sample z-test) and the
"factor increase" presentation the paper's figures annotate bars with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from scipy.special import ndtr, ndtri


class ProportionError(ValueError):
    """Raised on invalid counts or confidence levels."""


def _check_counts(successes: int, trials: int) -> None:
    if trials < 0 or successes < 0:
        raise ProportionError(
            f"counts must be >= 0, got successes={successes}, trials={trials}"
        )
    if successes > trials:
        raise ProportionError(
            f"successes ({successes}) exceed trials ({trials})"
        )


@lru_cache(maxsize=64)
def _z_for(confidence: float) -> float:
    """Two-sided normal quantile of ``confidence`` (memoised: a pure
    function of one float, and every interval asks for it)."""
    if not (0.0 < confidence < 1.0):
        raise ProportionError(f"confidence must be in (0, 1), got {confidence}")
    return float(ndtri(0.5 + confidence / 2.0))


def two_sided_normal_p(z: float) -> float:
    """Two-sided standard-normal p-value of ``z``, ``2 * P(Z >= |z|)``.

    The ``ndtr`` ufunc behind scipy.stats' normal survival function,
    called directly: the same value, without the distribution front end.
    """
    return 2.0 * float(ndtr(-abs(z)))


@dataclass(frozen=True, slots=True)
class ProportionEstimate:
    """A binomial proportion with its confidence interval.

    Attributes:
        successes: number of successes observed.
        trials: number of trials.
        confidence: confidence level of ``(low, high)``.
        low: lower CI bound.
        high: upper CI bound.
    """

    successes: int
    trials: int
    confidence: float
    low: float
    high: float

    @property
    def value(self) -> float:
        """Point estimate ``successes / trials`` (0 when trials == 0)."""
        if self.trials == 0:
            return 0.0
        return self.successes / self.trials

    @property
    def defined(self) -> bool:
        """False when there were no trials (the paper renders these 'NA')."""
        return self.trials > 0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if not self.defined:
            return "NA"
        return (
            f"{self.value:.4f} [{self.low:.4f}, {self.high:.4f}] "
            f"({self.successes}/{self.trials})"
        )


def wilson_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> ProportionEstimate:
    """Wilson score interval for a binomial proportion.

    Preferred over the normal (Wald) interval because it behaves at the
    extremes (p near 0 or 1, small n) that failure data constantly hits:
    it never leaves [0, 1] and has close-to-nominal coverage.

    Args:
        successes: number of successes.
        trials: number of trials; 0 yields an undefined estimate.
        confidence: CI level, default 0.95 as in the paper.
    """
    _check_counts(successes, trials)
    z = _z_for(confidence)
    if trials == 0:
        return ProportionEstimate(0, 0, confidence, float("nan"), float("nan"))
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (
        z
        * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
        / denom
    )
    low = max(0.0, center - half)
    high = min(1.0, center + half)
    # Exact boundary cases: rounding in center/half can leave ~1e-18 dust.
    if successes == 0:
        low = 0.0
    if successes == trials:
        high = 1.0
    return ProportionEstimate(successes, trials, confidence, low, high)


def wald_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> ProportionEstimate:
    """Normal-approximation (Wald) interval, clipped to [0, 1].

    Provided for comparison with :func:`wilson_interval`; the toolkit
    defaults to Wilson everywhere.
    """
    _check_counts(successes, trials)
    z = _z_for(confidence)
    if trials == 0:
        return ProportionEstimate(0, 0, confidence, float("nan"), float("nan"))
    p = successes / trials
    half = z * math.sqrt(p * (1 - p) / trials)
    return ProportionEstimate(
        successes, trials, confidence, max(0.0, p - half), min(1.0, p + half)
    )


@dataclass(frozen=True, slots=True)
class TwoSampleResult:
    """Outcome of a two-sample proportion comparison.

    Attributes:
        statistic: the pooled z statistic (NaN when undefined).
        p_value: two-sided p-value of the null "both proportions equal".
        significant: True when the null is rejected at ``alpha``.
        alpha: significance level the test was run at.
        factor: ratio ``p1 / p2`` -- the paper's "factor increase"
            annotation (NaN when the second proportion is zero or either
            sample is empty).
    """

    statistic: float
    p_value: float
    significant: bool
    alpha: float
    factor: float


def two_sample_z_test(
    successes1: int,
    trials1: int,
    successes2: int,
    trials2: int,
    alpha: float = 0.05,
) -> TwoSampleResult:
    """Two-sided pooled two-sample z-test for equality of proportions.

    This is the paper's "two-sample hypothesis test" used to decide
    whether a conditional failure probability is significantly different
    from the baseline.

    Degenerate inputs (an empty sample, or a pooled proportion of exactly
    0 or 1, where the statistic is undefined) return NaN statistics and a
    p-value of 1, i.e. "cannot reject".
    """
    _check_counts(successes1, trials1)
    _check_counts(successes2, trials2)
    if not (0.0 < alpha < 1.0):
        raise ProportionError(f"alpha must be in (0, 1), got {alpha}")
    if trials1 == 0 or trials2 == 0:
        return TwoSampleResult(float("nan"), 1.0, False, alpha, float("nan"))
    p1 = successes1 / trials1
    p2 = successes2 / trials2
    factor = p1 / p2 if p2 > 0 else float("nan")
    pooled = (successes1 + successes2) / (trials1 + trials2)
    if pooled in (0.0, 1.0):
        return TwoSampleResult(float("nan"), 1.0, False, alpha, factor)
    se = math.sqrt(pooled * (1 - pooled) * (1 / trials1 + 1 / trials2))
    z = (p1 - p2) / se
    p_value = two_sided_normal_p(z)
    return TwoSampleResult(z, p_value, p_value < alpha, alpha, factor)


def factor_increase(p_conditional: float, p_baseline: float) -> float:
    """The paper's 'X-fold increase' annotation: conditional / baseline.

    Returns NaN when the baseline is zero or either input is NaN, which
    the report layer renders as 'NA' exactly like the paper's figures.
    """
    if math.isnan(p_conditional) or math.isnan(p_baseline) or p_baseline <= 0.0:
        return float("nan")
    return p_conditional / p_baseline
