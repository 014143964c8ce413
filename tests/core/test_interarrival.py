"""Tests for the classical inter-arrival analysis."""

import dataclasses

import numpy as np
import pytest

from repro.core.interarrival import (
    InterArrivalError,
    fit_interarrival_model,
    interarrival_times,
    render_interarrival_report,
    simultaneity_share,
)
from repro.records.dataset import HardwareGroup, SystemDataset
from repro.records.failure import FailureRecord
from repro.records.taxonomy import Category
from repro.records.timeutil import ObservationPeriod


def system_with_times(times, num_nodes=4):
    return SystemDataset.from_records(
        system_id=1,
        group=HardwareGroup.GROUP1,
        num_nodes=num_nodes,
        processors_per_node=4,
        period=ObservationPeriod(0.0, 400.0),
        failures=tuple(
            FailureRecord(
                time=t, system_id=1, node_id=i % num_nodes,
                category=Category.HARDWARE,
            )
            for i, t in enumerate(times)
        ),
    )


class TestInterArrivalTimes:
    def test_gaps(self):
        ds = system_with_times([1.0, 3.0, 6.0])
        assert interarrival_times(ds).tolist() == [2.0, 3.0]

    def test_zero_gaps_dropped(self):
        ds = system_with_times([1.0, 1.0, 4.0])
        assert interarrival_times(ds).tolist() == [3.0]

    def test_per_node(self):
        ds = system_with_times([0.0, 1.0, 2.0, 3.0, 8.0], num_nodes=4)
        # node 0 got failures at t=0 and t=8 (indices 0 and 4).
        gaps = interarrival_times(ds, node_id=0)
        assert gaps.tolist() == [8.0]

    def test_too_few(self):
        ds = system_with_times([1.0])
        with pytest.raises(InterArrivalError):
            interarrival_times(ds)

    def test_simultaneity_share(self):
        ds = system_with_times([1.0, 1.0, 2.0])
        assert simultaneity_share(ds) == pytest.approx(0.5)


class TestFitModel:
    def test_on_archive_system(self, medium_archive):
        model = fit_interarrival_model(medium_archive[18])
        assert model.n_gaps > 100
        assert model.best.family in ("exponential", "weibull", "gamma", "lognormal")
        assert model.mean_gap_days > 0
        assert model.daily_acf is not None
        assert model.daily_acf[0] == pytest.approx(1.0)
        # Cascades make failures cluster: short-lag autocorrelation of
        # the daily count series is positive.
        assert np.mean(model.daily_acf[1:4]) > 0

    def test_models_compare_by_value(self, medium_archive):
        first = fit_interarrival_model(medium_archive[18])
        second = fit_interarrival_model(medium_archive[18])
        assert first == second
        assert hash(first) == hash(second)
        changed = dataclasses.replace(
            first, daily_acf=(*first.daily_acf[:-1], first.daily_acf[-1] + 0.5)
        )
        assert changed != first

    def test_fit_for_lookup(self, medium_archive):
        model = fit_interarrival_model(medium_archive[18])
        assert model.fit_for("weibull").family == "weibull"
        with pytest.raises(InterArrivalError):
            model.fit_for("cauchy")

    def test_report_renders(self, medium_archive):
        model = fit_interarrival_model(medium_archive[18])
        text = render_interarrival_report(model)
        assert "weibull" in text
        assert "AIC" in text
        assert "verdict" in text

    def test_clustered_process_detected(self):
        # Build an explicitly bursty process: tight bursts separated by
        # long quiet periods -> heavy-tailed gaps -> decreasing hazard.
        rng = np.random.default_rng(1)
        times = []
        t = 0.0
        while t < 380.0 and len(times) < 300:
            for _ in range(rng.integers(2, 6)):
                t += rng.exponential(0.05)
                times.append(t)
            t += rng.exponential(12.0)
        ds = system_with_times([x for x in times if x < 400.0])
        model = fit_interarrival_model(ds)
        assert model.clustered
