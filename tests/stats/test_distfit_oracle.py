"""The fit kernel against scipy's generic fit/logpdf/kstest path.

Exponential, lognormal and gamma are fitted in closed form (Newton's
method for the gamma shape), so they must agree with the scipy oracle
to rounding: 1e-12 relative on every reported number.  Weibull runs
scipy's own optimiser on the same sample in the same order, so it must
equal the oracle exactly; so must the KS tests of exponential and
lognormal, whose parameters and CDFs are scipy's to the last bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstwo

from repro.stats.distfit import FAMILIES, DistributionFit, fit_all, fit_family

from .reference_distfit import reference_fit_all, reference_fit_family

REL = 1e-12
EXACT_FAMILIES = ("exponential", "lognormal", "gamma")

GENERATORS = {
    "exponential": lambda rng, n: rng.exponential(1.0, n),
    "weibull": lambda rng, n: rng.weibull(rng.uniform(0.4, 2.5), n),
    "lognormal": lambda rng, n: rng.lognormal(0.0, rng.uniform(0.2, 2.0), n),
    "gamma": lambda rng, n: rng.gamma(rng.uniform(0.3, 4.0), 1.0, n),
}


@st.composite
def samples(draw):
    """Positive samples with spread: n from 8, ties, scales 1e-6..1e6."""
    n = draw(st.integers(8, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = GENERATORS[draw(st.sampled_from(FAMILIES))](rng, n)
    if draw(st.booleans()):
        # Ties: round to a coarse grid, as logged repair hours are.
        x = np.round(x, 1)
        x[x <= 0] = 0.1
    x = x * 10.0 ** draw(st.integers(-6, 6))
    if x.min() == x.max():
        x[0] *= 2.0
    return x


def assert_close(got: DistributionFit, want: DistributionFit) -> None:
    assert got.family == want.family and got.n == want.n
    assert len(got.params) == len(want.params)
    for g, w in zip(got.params, want.params):
        assert math.isclose(g, w, rel_tol=REL, abs_tol=0.0 if w else 1e-300)
    # A log-likelihood sums n terms, which can cancel to near zero at
    # some scale: its rounding error is relative to n, not to the sum.
    ll_tol = REL * max(abs(want.log_likelihood), want.n)
    assert abs(got.log_likelihood - want.log_likelihood) <= ll_tol
    assert abs(got.aic - want.aic) <= 2 * ll_tol
    assert math.isclose(got.ks_statistic, want.ks_statistic, rel_tol=REL)
    assert got.ks_p_value == kstwo.sf(got.ks_statistic, got.n)
    p_tol = REL * want.ks_p_value + sf_jitter(
        got.ks_statistic, want.ks_statistic, got.n
    )
    assert abs(got.ks_p_value - want.ks_p_value) <= p_tol


def sf_jitter(d1: float, d2: float, n: int) -> float:
    """How much ``kstwo.sf`` itself varies between two KS distances.

    ``kstwo.sf`` is not smooth at the last bit: a one-ulp change of the
    distance can move it by a few 1e-12 relative.  Where the gamma
    shape's Newton root and scipy's Brent root differ in the last bit,
    so do the two distances, and the p-values may differ by this much
    on top of the 1e-12.
    """
    if d1 == d2:
        return 0.0
    p = kstwo.sf(np.linspace(min(d1, d2), max(d1, d2), 17), n)
    return float(p.max() - p.min())


class TestExactFamilies:
    @settings(max_examples=150, deadline=None)
    @given(samples())
    def test_agree_with_scipy(self, x):
        for family in EXACT_FAMILIES:
            got, want = fit_family(x, family), reference_fit_family(x, family)
            assert_close(got, want)
            if family != "gamma":
                assert got.params == want.params
                assert got.ks_statistic == want.ks_statistic
                assert got.ks_p_value == want.ks_p_value

    def test_gamma_where_kstwo_jitters(self):
        # A sample on which the two gamma roots differ in the last bit
        # and kstwo.sf turns that into 1.8e-12 of p-value.
        x = np.random.default_rng(3).lognormal(0.0, 1.4, 120)
        got, want = fit_family(x, "gamma"), reference_fit_family(x, "gamma")
        assert not math.isclose(got.ks_p_value, want.ks_p_value, rel_tol=REL)
        assert_close(got, want)

    def test_gamma_shape_at_rounding_floor(self):
        # Little spread, so a gamma shape near 60: there one ulp of
        # log k - psi(k) moves the Newton root by 1.6e-14 of k, and the
        # iteration wandered around the root until it gave up.
        x = np.array([0.70043813, 0.91406212, 0.83946524, 0.95783345,
                      1.09989503, 0.86074974, 0.94822529, 1.04362757])
        got, want = fit_family(x, "gamma"), reference_fit_family(x, "gamma")
        assert got.params[0] > 50
        assert_close(got, want)

    def test_smallest_sample_with_ties(self):
        x = np.array([1.0, 1.0, 2.0, 2.0, 3.0, 5.0, 8.0, 13.0])
        for family in EXACT_FAMILIES:
            assert_close(fit_family(x, family), reference_fit_family(x, family))

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_scales(self, scale):
        x = np.random.default_rng(11).gamma(0.7, scale, 500)
        for family in EXACT_FAMILIES:
            assert_close(fit_family(x, family), reference_fit_family(x, family))


class TestWeibull:
    @settings(max_examples=40, deadline=None)
    @given(samples())
    def test_equals_scipy_exactly(self, x):
        assert fit_family(x, "weibull") == reference_fit_family(x, "weibull")


class TestFitAll:
    @settings(max_examples=40, deadline=None)
    @given(samples())
    def test_one_sample_every_family(self, x):
        got, want = fit_all(x), reference_fit_all(x)
        by_family = {f.family: f for f in want}
        assert sorted(f.family for f in got) == sorted(FAMILIES)
        for fit in got:
            if fit.family == "weibull":
                assert fit == by_family["weibull"]
            else:
                assert_close(fit, by_family[fit.family])
        assert [f.aic for f in got] == sorted(f.aic for f in got)

    def test_fit_family_is_a_selector_over_fit_all(self):
        x = np.random.default_rng(12).lognormal(0.5, 1.2, 300)
        fits = {f.family: f for f in fit_all(x)}
        for family in FAMILIES:
            assert fit_family(x, family) == fits[family]
