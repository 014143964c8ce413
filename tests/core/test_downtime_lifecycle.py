"""Tests for the downtime/availability and lifecycle analyses."""

import numpy as np
import pytest

from repro.core.downtime import (
    DowntimeAnalysisError,
    availability,
    downtime_share_by_category,
    render_downtime_report,
    repair_times,
    repair_times_by_category,
)
from repro.core.lifecycle import (
    LifecycleAnalysisError,
    failure_rate_by_age,
    lifecycle_analysis,
    render_lifecycle_report,
)
from repro.records.dataset import HardwareGroup, SystemDataset
from repro.records.failure import FailureRecord
from repro.records.taxonomy import Category
from repro.records.timeutil import ObservationPeriod


def make_system(failures, num_nodes=10, period=400.0):
    return SystemDataset.from_records(
        system_id=1,
        group=HardwareGroup.GROUP1,
        num_nodes=num_nodes,
        processors_per_node=4,
        period=ObservationPeriod(0.0, period),
        failures=tuple(failures),
    )


def fail(time, cat=Category.HARDWARE, hours=2.0, node=0):
    return FailureRecord(
        time=time,
        system_id=1,
        node_id=node,
        category=cat,
        downtime_hours=hours,
    )


class TestRepairTimes:
    def test_summary(self):
        ds = make_system([fail(1.0, hours=2.0), fail(2.0, hours=6.0)])
        r = repair_times([ds])
        assert r.mttr_hours == pytest.approx(4.0)
        assert r.fitted is None  # too few samples to fit

    def test_category_filter(self):
        ds = make_system(
            [fail(1.0, Category.HARDWARE, 2.0), fail(2.0, Category.SOFTWARE, 10.0)]
        )
        hw = repair_times([ds], Category.HARDWARE)
        assert hw.mttr_hours == pytest.approx(2.0)

    def test_rejects_no_data(self):
        ds = make_system([fail(1.0, hours=0.0)])
        with pytest.raises(DowntimeAnalysisError):
            repair_times([ds])

    def test_env_repairs_longest_on_archive(self, medium_archive):
        """The generator injects the longest repairs for ENV failures."""
        by_cat = repair_times_by_category(list(medium_archive))
        assert by_cat[Category.ENVIRONMENT].mttr_hours > by_cat[
            Category.HUMAN
        ].mttr_hours
        # All repair-time laws in the generator are lognormal.
        fit = by_cat[Category.HARDWARE].fitted
        assert fit is not None and fit.family == "lognormal"


class TestDowntimeShare:
    def test_shares_sum_to_one(self, medium_archive):
        shares = downtime_share_by_category(list(medium_archive))
        assert sum(shares.values()) == pytest.approx(1.0)
        # Hardware dominates counts, hence downtime too.
        assert shares[Category.HARDWARE] == max(shares.values())

    def test_rejects_zero_downtime(self):
        ds = make_system([fail(1.0, hours=0.0)])
        with pytest.raises(DowntimeAnalysisError):
            downtime_share_by_category([ds])


class TestAvailability:
    def test_accounting(self):
        ds = make_system([fail(1.0, hours=24.0)], num_nodes=1, period=100.0)
        a = availability(ds)
        assert a.node_hours == pytest.approx(2400.0)
        assert a.availability == pytest.approx(1.0 - 24.0 / 2400.0)
        assert a.nines == pytest.approx(2.0)

    def test_on_archive(self, medium_archive):
        for ds in list(medium_archive)[:3]:
            a = availability(ds)
            assert 0.9 < a.availability < 1.0

    def test_report_renders(self, medium_archive):
        text = render_downtime_report(list(medium_archive)[:3])
        assert "MTTR" in text
        assert "availability" in text


class TestLifecycle:
    def test_rate_bins(self):
        failures = [fail(float(t), node=t % 10) for t in range(0, 100, 2)]
        ds = make_system(failures, period=120.0)
        starts, rates = failure_rate_by_age(ds, bin_days=30.0)
        assert starts.tolist() == [0.0, 30.0, 60.0, 90.0]
        assert rates[0] == pytest.approx(15 / (10 * 30.0))

    def test_detects_injected_infant_mortality(self, medium_archive):
        r = lifecycle_analysis(medium_archive[18])
        assert r.early_factor > 1.3
        assert r.infant_mortality_detected

    def test_flat_process_not_flagged(self):
        rng = np.random.default_rng(1)
        times = np.sort(rng.uniform(0.0, 400.0, 300))
        ds = make_system(
            [fail(float(t), node=i % 10) for i, t in enumerate(times)]
        )
        r = lifecycle_analysis(ds)
        assert not r.infant_mortality_detected

    def test_render(self, medium_archive):
        text = render_lifecycle_report(lifecycle_analysis(medium_archive[18]))
        assert "failure rate by age" in text
        assert "verdict" in text

    def test_rejects_short_period(self):
        ds = make_system([fail(1.0)], period=40.0)
        with pytest.raises(LifecycleAnalysisError):
            failure_rate_by_age(ds, bin_days=30.0)
        with pytest.raises(LifecycleAnalysisError):
            lifecycle_analysis(ds, early_days=90.0)
