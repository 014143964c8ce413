"""Unit tests for temperature and neutron records."""

import numpy as np
import pytest

from repro.records.environment import (
    EnvironmentRecordError,
    NeutronReading,
    TemperatureColumns,
    TemperatureReading,
    monthly_neutron_averages,
    summarize_temperatures,
)
from repro.records.timeutil import ObservationPeriod


def reading(time=0.0, node=0, c=25.0):
    return TemperatureReading(time=time, system_id=20, node_id=node, celsius=c)


class TestTemperatureReading:
    def test_valid(self):
        assert reading(c=35.0).celsius == 35.0

    def test_severe_threshold(self):
        assert reading(c=40.1).is_severe
        assert not reading(c=40.0).is_severe

    def test_rejects_implausible(self):
        with pytest.raises(EnvironmentRecordError):
            reading(c=200.0)
        with pytest.raises(EnvironmentRecordError):
            reading(c=float("nan"))

    def test_rejects_negative_time(self):
        with pytest.raises(EnvironmentRecordError):
            reading(time=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_time(self, value):
        with pytest.raises(EnvironmentRecordError, match="non-finite time"):
            reading(time=value)


class TestTemperatureColumns:
    READINGS = [reading(2.0, 1), reading(1.0, 3), reading(2.0, 0, 30.0), reading(2.0, 0)]

    def test_in_record_order_sorts_like_records(self):
        cols = TemperatureColumns.from_records(self.READINGS).in_record_order()
        want = TemperatureColumns.from_records(sorted(self.READINGS))
        for name in ("times", "node_ids", "celsius"):
            assert np.array_equal(getattr(cols, name), getattr(want, name))

    def test_in_record_order_keeps_sorted_columns(self):
        cols = TemperatureColumns.from_records(sorted(self.READINGS))
        assert cols.in_record_order() is cols

    def test_check_raises_record_error(self):
        cols = TemperatureColumns.from_records(self.READINGS)
        cols.check()
        cols.celsius[2] = float("nan")
        with pytest.raises(
            EnvironmentRecordError,
            match="^1 invalid temperature samples, the first at row 2$",
        ):
            cols.check()


class TestSummaries:
    def test_aggregates(self):
        readings = [
            reading(time=0.0, node=0, c=20.0),
            reading(time=1.0, node=0, c=30.0),
            reading(time=2.0, node=0, c=45.0),
        ]
        out = summarize_temperatures(readings, 2)
        s = out[0]
        assert s.avg_temp == pytest.approx(95.0 / 3)
        assert s.max_temp == 45.0
        assert s.num_hightemp == 1
        assert s.num_readings == 3
        assert s.temp_var == pytest.approx(np.var([20.0, 30.0, 45.0]))

    def test_unsampled_node_is_nan(self):
        out = summarize_temperatures([reading(node=0)], 2)
        assert out[1].num_readings == 0
        assert np.isnan(out[1].avg_temp)

    def test_rejects_out_of_range_node(self):
        with pytest.raises(EnvironmentRecordError):
            summarize_temperatures([reading(node=5)], 2)


class TestNeutronReading:
    def test_valid(self):
        r = NeutronReading(time=0.0, counts_per_minute=4000.0)
        assert r.counts_per_minute == 4000.0

    def test_rejects_negative_counts(self):
        with pytest.raises(EnvironmentRecordError):
            NeutronReading(time=0.0, counts_per_minute=-1.0)

    def test_ordering(self):
        a = NeutronReading(time=0.0, counts_per_minute=1.0)
        b = NeutronReading(time=1.0, counts_per_minute=2.0)
        assert a < b


class TestMonthlyAverages:
    PERIOD = ObservationPeriod(0.0, 90.0)

    def test_basic(self):
        readings = [
            NeutronReading(time=t, counts_per_minute=c)
            for t, c in [(0.0, 100.0), (10.0, 200.0), (40.0, 300.0)]
        ]
        means = monthly_neutron_averages(readings, self.PERIOD)
        assert means.shape == (3,)
        assert means[0] == pytest.approx(150.0)
        assert means[1] == pytest.approx(300.0)
        assert np.isnan(means[2])

    def test_empty(self):
        means = monthly_neutron_averages([], self.PERIOD)
        assert np.isnan(means).all()

    def test_trailing_partial_month_ignored(self):
        period = ObservationPeriod(0.0, 95.0)
        readings = [NeutronReading(time=92.0, counts_per_minute=1.0)]
        means = monthly_neutron_averages(readings, period)
        assert means.shape == (3,)
        assert np.isnan(means).all()
