"""Metrics registry accuracy, including against known cache workloads."""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.core.cache import fail_kind, get_cache
from repro.records.timeutil import Span


class TestRegistry:
    def test_disabled_mutators_noop(self):
        assert not telemetry.metrics_enabled()
        telemetry.counter_add("x", 5)
        telemetry.gauge_set("y", 1.0)
        telemetry.observe("z", 2.0)
        snap = telemetry.metrics_snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_counter_label_series(self):
        telemetry.enable_metrics()
        telemetry.counter_add("loads", 1, result="warm")
        telemetry.counter_add("loads", 1, result="warm")
        telemetry.counter_add("loads", 3, result="cold")
        telemetry.counter_add("plain")
        snap = telemetry.metrics_snapshot()["counters"]
        assert snap["loads{result=warm}"] == 2
        assert snap["loads{result=cold}"] == 3
        assert snap["plain"] == 1

    def test_counter_value_and_reset(self):
        telemetry.enable_metrics()
        telemetry.counter_add("n", 2, k="a")
        assert telemetry.registry().counter_value("n", k="a") == 2
        assert telemetry.registry().counter_value("n", k="other") == 0
        telemetry.reset_metrics()
        assert telemetry.registry().counter_value("n", k="a") == 0


class TestCacheWorkload:
    """Counters must match a hand-computed cache workload exactly."""

    @pytest.fixture()
    def fresh_system(self, tiny_archive):
        # A dataset object with a guaranteed-cold analysis cache:
        # session fixtures share caches, so rebuild a tiny system.
        from repro.simulate.archive import quick_archive

        return quick_archive(seed=11, years=1.0, scale=0.03)[2]

    def test_baseline_grid_counters(self, fresh_system):
        telemetry.enable_metrics()
        cache = get_cache(fresh_system)
        kinds = [fail_kind()]
        spans = [Span.DAY, Span.WEEK]

        cache.baseline_grid(kinds, spans)  # cold: every cell misses
        counters = telemetry.metrics_snapshot()["counters"]
        assert counters["analysis_cache.misses"] == len(kinds) * len(spans)
        assert "analysis_cache.hits" not in counters

        cache.baseline_grid(kinds, spans)  # warm: every cell hits
        counters = telemetry.metrics_snapshot()["counters"]
        assert counters["analysis_cache.hits"] == len(kinds) * len(spans)
        # registry agrees with the per-instance tallies
        assert counters["analysis_cache.hits"] == cache.hits
        assert counters["analysis_cache.misses"] == cache.misses

    def test_window_kernel_cell_counters(self, fresh_system):
        telemetry.enable_metrics()
        cache = get_cache(fresh_system)
        spans = [Span.DAY, Span.WEEK]
        cache.baseline_grid([fail_kind()], spans)
        counters = telemetry.metrics_snapshot()["counters"]
        assert counters["windows.baseline_batch_calls"] == 1
        assert counters["windows.baseline_cells{path=batch}"] == len(spans)
