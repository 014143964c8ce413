"""Tests for distribution fitting (parameter recovery, model selection)."""

import numpy as np
import pytest

from repro.stats.distfit import (
    DistFitError,
    FAMILIES,
    best_fit,
    fit_all,
    fit_family,
)


class TestFitFamily:
    def test_exponential_recovery(self):
        rng = np.random.default_rng(1)
        x = rng.exponential(scale=3.0, size=3000)
        fit = fit_family(x, "exponential")
        assert fit.mean == pytest.approx(3.0, rel=0.1)
        assert fit.ks_p_value > 0.01
        assert fit.shape is None
        assert fit.decreasing_hazard is False

    def test_weibull_shape_recovery(self):
        rng = np.random.default_rng(2)
        x = rng.weibull(0.7, size=3000) * 2.0
        fit = fit_family(x, "weibull")
        assert fit.shape == pytest.approx(0.7, rel=0.15)
        assert fit.decreasing_hazard is True

    def test_weibull_increasing_hazard(self):
        rng = np.random.default_rng(3)
        x = rng.weibull(2.0, size=2000)
        fit = fit_family(x, "weibull")
        assert fit.decreasing_hazard is False

    def test_lognormal_recovery(self):
        rng = np.random.default_rng(4)
        x = rng.lognormal(1.0, 0.8, size=3000)
        fit = fit_family(x, "lognormal")
        assert fit.shape == pytest.approx(0.8, rel=0.1)
        assert fit.decreasing_hazard is None

    def test_gamma_recovery(self):
        rng = np.random.default_rng(5)
        x = rng.gamma(0.6, 2.0, size=3000)
        fit = fit_family(x, "gamma")
        assert fit.shape == pytest.approx(0.6, rel=0.15)
        assert fit.decreasing_hazard is True

    def test_rejects_unknown_family(self):
        with pytest.raises(DistFitError):
            fit_family(np.ones(20) + np.arange(20), "cauchy")

    def test_rejects_nonpositive(self):
        with pytest.raises(DistFitError):
            fit_family(np.array([1.0, 0.0] + [1.0] * 10), "weibull")

    def test_rejects_tiny_sample(self):
        with pytest.raises(DistFitError):
            fit_family(np.array([1.0, 2.0]), "weibull")

    @pytest.mark.parametrize("family", FAMILIES)
    def test_rejects_zero_spread(self, family):
        # Every family, not only those whose solver happens to fail: a
        # lognormal would otherwise "fit" sigma = 1e-16.
        with pytest.raises(DistFitError, match="zero spread"):
            fit_family(np.full(20, 2.5), family)

    def test_fit_all_rejects_zero_spread(self):
        with pytest.raises(DistFitError, match="zero spread"):
            fit_all(np.full(20, 2.5))


class TestModelSelection:
    def test_fit_all_sorted_by_aic(self):
        rng = np.random.default_rng(6)
        x = rng.exponential(size=500)
        fits = fit_all(x)
        assert len(fits) == len(FAMILIES)
        aics = [f.aic for f in fits]
        assert aics == sorted(aics)

    def test_best_fit_picks_generating_family(self):
        rng = np.random.default_rng(7)
        x = rng.lognormal(0.0, 1.5, size=4000)
        assert best_fit(x).family == "lognormal"

    def test_exponential_data_prefers_simplicity(self):
        # AIC penalises the extra shape parameter: exponential should be
        # at or near the top on its own data.
        rng = np.random.default_rng(8)
        x = rng.exponential(size=4000)
        fits = fit_all(x)
        assert fits[0].family in ("exponential", "weibull", "gamma")
        expo = next(f for f in fits if f.family == "exponential")
        assert expo.aic <= fits[0].aic + 4.0
