"""Analysis-cache correctness and report byte-identity.

The memoization layer must be invisible: a cold report, a warm report
and a parallel report must all be the same bytes as the pinned digest.
These tests also pin the cache bookkeeping the ``--profile`` flag
reports.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import weakref

import numpy as np
import pytest

from repro.core.cache import (
    AnalysisCache,
    cache_stats,
    fail_kind,
    get_cache,
    maint_kind,
    pooled_baseline_grid,
    pooled_conditional_grid,
    split_kind,
)
from repro.core.interarrival import fit_interarrival_model
from repro.core.report import REPORT_SECTIONS, full_report, profiled_full_report
from repro.core.windows import Scope, WindowAnalysisError
from repro.records.taxonomy import Category, HardwareSubtype
from repro.records.timeutil import Span
from tests.core.test_windows_reference import percell_baseline, percell_conditional

#: sha256 of ``full_report(tiny_archive)``, recorded when the uncached
#: per-cell report path still existed and produced these same bytes.
TINY_REPORT_SHA256 = (
    "09a79da433a46253760d3fb57c2930345554a119352e4aa2e051f537b618a004"
)


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _fresh(ds):
    """Drop any memoized cache so a test starts from a cold dataset."""
    ds.__dict__.pop("_analysis_cache", None)
    return ds


class TestAnalysisCache:
    def test_get_cache_is_per_dataset_singleton(self, group1):
        ds = _fresh(group1[0])
        cache = get_cache(ds)
        assert isinstance(cache, AnalysisCache)
        assert get_cache(ds) is cache
        assert get_cache(_fresh(group1[1])) is not cache

    def test_dropped_dataset_is_freed_without_the_cycle_collector(
        self, tiny_archive
    ):
        # The cache refers back to its dataset weakly, so dropping the
        # last reference frees the dataset and its memo at once instead
        # of at the next full collection.
        ds = dataclasses.replace(next(iter(tiny_archive)))
        get_cache(ds).baseline(fail_kind(), Span.WEEK)
        fit_interarrival_model(ds)
        dead = weakref.ref(ds)
        gc.disable()
        try:
            del ds
            assert dead() is None
        finally:
            gc.enable()

    def test_baseline_matches_direct_and_hits_on_reuse(self, group1):
        ds = _fresh(group1[0])
        cache = get_cache(ds)
        kind = fail_kind(category=Category.HARDWARE)
        idx = ds.failure_table.events(category=Category.HARDWARE)
        expected = percell_baseline(idx, ds.num_nodes, ds.period, Span.WEEK)
        assert cache.baseline(kind, Span.WEEK) == expected
        misses = cache.misses
        assert cache.baseline(kind, Span.WEEK) == expected
        assert cache.misses == misses
        assert cache.hits >= 1

    def test_conditional_matches_direct(self, group1):
        ds = _fresh(group1[0])
        cache = get_cache(ds)
        trig = fail_kind(category=Category.SOFTWARE)
        targ = fail_kind()
        got = cache.conditional(trig, targ, Span.DAY, Scope.NODE)
        expected = percell_conditional(
            ds.failure_table.events(category=Category.SOFTWARE),
            ds.failure_table.events(),
            ds.period,
            Span.DAY,
        )
        assert got == expected

    def test_node_subset_requires_key(self, group1):
        cache = get_cache(_fresh(group1[0]))
        with pytest.raises(ValueError, match="subset_key"):
            cache.baseline(
                fail_kind(), Span.WEEK, node_subset=np.array([0, 1])
            )

    def test_maintenance_kind(self, group1):
        ds = _fresh(group1[0])
        cache = get_cache(ds)
        hw = cache.events(maint_kind(hardware_only=True))
        allm = cache.events(maint_kind(hardware_only=False))
        assert hw.times.size <= allm.times.size

    def test_split_kind(self):
        assert split_kind(None) == fail_kind()
        assert split_kind(Category.HARDWARE) == fail_kind(
            category=Category.HARDWARE
        )
        assert split_kind(HardwareSubtype.CPU) == fail_kind(
            subtype=HardwareSubtype.CPU
        )


class TestPooledGrids:
    def test_pooled_sums_over_systems(self, group1):
        systems = [_fresh(ds) for ds in group1[:2]]
        kind = fail_kind()
        grid = pooled_baseline_grid(systems, [kind], [Span.WEEK])
        parts = [get_cache(ds).baseline(kind, Span.WEEK) for ds in systems]
        assert grid[0][0].successes == sum(p.successes for p in parts)
        assert grid[0][0].trials == sum(p.trials for p in parts)

    def test_pooled_conditional_skips_rackless(self, group1):
        systems = [_fresh(ds) for ds in group1[:2]]
        with_racks = [ds for ds in systems if ds.rack_of is not None]
        if len(with_racks) == len(systems):
            pytest.skip("all fixture systems have rack layouts")
        kind = fail_kind()
        pooled = pooled_conditional_grid(
            systems, [kind], [kind], [Span.WEEK], scope=Scope.RACK
        )
        only_racked = pooled_conditional_grid(
            with_racks, [kind], [kind], [Span.WEEK], scope=Scope.RACK
        )
        assert pooled == only_racked

    def test_empty_pool_rejected(self):
        with pytest.raises(WindowAnalysisError, match="at least one system"):
            pooled_baseline_grid([], [fail_kind()], [Span.WEEK])
        with pytest.raises(WindowAnalysisError, match="at least one system"):
            pooled_conditional_grid([], [fail_kind()], [fail_kind()], [Span.WEEK])


class TestReportIdentity:
    def test_cold_and_warm_match_uncached(self, tiny_archive):
        for ds in tiny_archive:
            _fresh(ds)
        cold = full_report(tiny_archive)
        warm = full_report(tiny_archive)
        assert _digest(cold) == TINY_REPORT_SHA256
        assert _digest(warm) == TINY_REPORT_SHA256
        hits, misses, entries = cache_stats(tiny_archive)
        assert hits > 0 and misses > 0 and entries > 0

    def test_profiled_report(self, tiny_archive):
        text, profile = profiled_full_report(tiny_archive)
        assert _digest(text) == TINY_REPORT_SHA256
        assert len(profile.section_seconds) == len(REPORT_SECTIONS)
        rendered = profile.render()
        for name, seconds in profile.section_seconds:
            assert seconds >= 0.0
            assert name in rendered
        assert "analysis cache:" in rendered
