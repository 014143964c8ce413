"""Tests for the synthetic neutron-monitor series."""

import numpy as np
import pytest

from repro.records.timeutil import DAYS_PER_YEAR
from repro.simulate.neutrons import (
    NeutronModel,
    NeutronModelError,
    daily_flux,
    generate_neutron_series,
)


class TestModel:
    def test_defaults_valid(self):
        NeutronModel()

    def test_rejects_bad_params(self):
        with pytest.raises(NeutronModelError):
            NeutronModel(mean_counts=0.0)
        with pytest.raises(NeutronModelError):
            NeutronModel(solar_amplitude=1.5)
        with pytest.raises(NeutronModelError):
            NeutronModel(noise_rho=1.0)


class TestDailyFlux:
    def test_shape_and_positivity(self):
        flux = daily_flux(365.0, np.random.default_rng(1))
        assert flux.shape == (365,)
        assert (flux >= 0).all()

    def test_dynamic_range_matches_figure14(self):
        # Full solar cycle: monthly averages should span roughly the
        # paper's x-axis (~3400-4600 counts/min).
        flux = daily_flux(11 * DAYS_PER_YEAR, np.random.default_rng(2))
        assert flux.min() > 3000
        assert flux.max() < 5000
        assert flux.max() - flux.min() > 600

    def test_solar_cycle_visible(self):
        model = NeutronModel(noise_sigma=0.0, forbush_rate_per_year=0.0)
        flux = daily_flux(11 * DAYS_PER_YEAR, np.random.default_rng(3), model)
        # Pure sinusoid: autocorrelation at half a cycle is negative.
        half = int(5.5 * DAYS_PER_YEAR)
        c = np.corrcoef(flux[:-half], flux[half:])[0, 1]
        assert c < -0.9

    def test_deterministic(self):
        a = daily_flux(100.0, np.random.default_rng(5))
        b = daily_flux(100.0, np.random.default_rng(5))
        assert (a == b).all()

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(NeutronModelError):
            daily_flux(0.0, np.random.default_rng(1))


class TestSeries:
    def test_sampling_interval(self):
        series, flux = generate_neutron_series(
            30.0, np.random.default_rng(1), sample_interval_days=2.0
        )
        assert len(series) == 15
        assert flux.shape == (30,)
        assert series.times[1] - series.times[0] == pytest.approx(2.0)

    def test_readings_match_flux(self):
        series, flux = generate_neutron_series(
            10.0, np.random.default_rng(1), sample_interval_days=1.0
        )
        for t, counts in zip(series.times, series.counts_per_minute):
            assert counts == pytest.approx(flux[int(t)])

    @pytest.mark.parametrize("duration, interval", [(10.05, 0.3), (7.0, 1.0), (3.5, 4.0)])
    def test_series_equals_the_sampling_loop(self, duration, interval):
        """Each sample is what the accumulating loop reads: the flux of
        the day ``t`` falls in, the last day for a ``t`` past it."""
        series, flux = generate_neutron_series(
            duration, np.random.default_rng(4), sample_interval_days=interval
        )
        times, counts = [], []
        t = 0.0
        while t < duration:
            times.append(t)
            counts.append(float(flux[min(int(t), flux.size - 1)]))
            t += interval
        assert series.times.dtype == series.counts_per_minute.dtype == np.float64
        assert series.times.tolist() == times
        assert series.counts_per_minute.tolist() == counts

    def test_rejects_bad_interval(self):
        with pytest.raises(NeutronModelError):
            generate_neutron_series(10.0, np.random.default_rng(1), 0.0)
