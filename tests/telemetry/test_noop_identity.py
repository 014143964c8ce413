"""Telemetry must never change pipeline *results*, only observe them."""

from __future__ import annotations

from repro import telemetry
from repro.core.report import full_report, profiled_full_report
from repro.simulate.archive import quick_archive
from repro.simulate.config import small_config
from tests.records.record_views import failure_records, job_records


class TestNoopIdentity:
    def test_report_identical_with_telemetry_on(self):
        plain_archive = quick_archive(seed=21, years=1.0, scale=0.03)
        with telemetry.disabled():
            plain = full_report(plain_archive)

        telemetry.start_trace()
        telemetry.enable_metrics()
        traced_archive = quick_archive(seed=21, years=1.0, scale=0.03)
        traced = full_report(traced_archive)
        roots = telemetry.finish_trace()

        assert traced == plain
        # and the run actually was observed
        names = {s.name for root in roots for s, _ in root.walk()}
        assert "simulate.make_archive" in names
        assert "report.section" in names
        counters = telemetry.metrics_snapshot()["counters"]
        assert counters["simulate.archives"] == 1

    def test_generation_identical_with_telemetry_on(self):
        config = small_config(seed=22, years=1.0, scale=0.03)
        from repro.simulate.archive import make_archive

        with telemetry.disabled():
            plain = make_archive(config)
        with telemetry.trace():
            telemetry.enable_metrics()
            traced = make_archive(config)
        assert len(plain) == len(traced)
        for ds_plain, ds_traced in zip(plain, traced):
            assert failure_records(ds_plain) == failure_records(ds_traced)
            assert job_records(ds_plain) == job_records(ds_traced)

    def test_profile_durations_real_when_disabled(self):
        archive = quick_archive(seed=23, years=1.0, scale=0.03)
        with telemetry.disabled():
            text, profile = profiled_full_report(archive)
        assert text
        assert profile.total_seconds > 0
        assert all(seconds >= 0 for _, seconds in profile.section_seconds)
        assert len(profile.section_seconds) == 10
