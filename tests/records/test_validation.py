"""Tests for archive validation checks."""

from repro.records.dataset import Archive, HardwareGroup, SystemDataset
from repro.records.environment import TemperatureReading
from repro.records.failure import FailureRecord, MaintenanceRecord
from repro.records.io import load_archive, save_archive
from repro.records.taxonomy import Category
from repro.records.timeutil import ObservationPeriod
from repro.records.usage import JobRecord
from repro.records.validation import Severity, validate_archive

#: validate_archive's report on the tiny fixture, generated or loaded.
TINY_REPORT = (
    "[info] system 18 / failure-skew: node 0 has 11.3X the mean per-node "
    "failure count (64 vs 5.65); at LANL such nodes are typically "
    "login/launch nodes\n"
    "[info] system 19 / failure-skew: node 0 has 12.2X the mean per-node "
    "failure count (71 vs 5.81); at LANL such nodes are typically "
    "login/launch nodes"
)


def fail(time, node=0):
    return FailureRecord(
        time=time, system_id=1, node_id=node, category=Category.HARDWARE
    )


def system(
    failures, num_nodes=10, period_end=400.0, jobs=(), temperatures=(), maintenance=()
):
    return SystemDataset.from_records(
        system_id=1,
        group=HardwareGroup.GROUP1,
        num_nodes=num_nodes,
        processors_per_node=4,
        period=ObservationPeriod(0.0, period_end),
        failures=tuple(failures),
        maintenance=tuple(maintenance),
        jobs=tuple(jobs),
        temperatures=tuple(temperatures),
    )


def job(job_id, nodes, submit=1.0, end=2.0):
    return JobRecord(
        submit_time=submit,
        system_id=1,
        job_id=job_id,
        dispatch_time=submit,
        end_time=end,
        user_id=0,
        num_processors=4,
        node_ids=tuple(nodes),
    )


class TestValidation:
    def test_clean_archive_ok(self, tiny_archive):
        report = validate_archive(tiny_archive)
        assert report.ok

    def test_no_failures_warns(self):
        report = validate_archive(Archive([system([])]))
        checks = {f.check for f in report}
        assert "no-failures" in checks
        assert report.ok  # warnings do not fail validation

    def test_short_period_errors(self):
        ds = system([fail(1.0)], period_end=10.0)
        report = validate_archive(Archive([ds]))
        assert not report.ok
        assert any(f.check == "short-period" for f in report)

    def test_failure_skew_flagged(self):
        failures = [fail(float(i) % 300, node=0) for i in range(100)]
        failures += [fail(float(n), node=n) for n in range(1, 20)]
        report = validate_archive(Archive([system(failures, num_nodes=20)]))
        assert any(f.check == "failure-skew" for f in report)

    def test_storm_flagged(self):
        failures = [fail(5.0 + i * 1e-4, node=i % 10) for i in range(60)]
        report = validate_archive(Archive([system(failures)]))
        assert any(f.check == "failure-storm" for f in report)

    def test_mostly_silent_flagged(self):
        failures = [fail(1.0, node=0)]
        report = validate_archive(Archive([system(failures, num_nodes=100)]))
        assert any(f.check == "mostly-silent" for f in report)

    def test_archive_level_hints(self):
        report = validate_archive(Archive([system([fail(1.0)])]))
        checks = {f.check for f in report}
        assert "no-neutrons" in checks
        assert "no-usage" in checks
        assert "no-layout" in checks

    def test_clean_archive_report_pinned(self, tiny_archive, tmp_path):
        assert validate_archive(tiny_archive).render() == TINY_REPORT
        save_archive(tiny_archive, tmp_path / "arch")
        loaded = load_archive(tmp_path / "arch")
        assert validate_archive(loaded).render() == TINY_REPORT
        # Validation reads the logs as columns, never as records.
        assert not any(
            "_jobs" in ds.__dict__ or "_temperatures" in ds.__dict__
            for ds in loaded
        )

    def test_job_outside_period_warns(self):
        jobs = [job(1, [0]), job(2, [1], submit=400.0, end=401.0)]
        report = validate_archive(Archive([system([fail(1.0)], jobs=jobs)]))
        [finding] = [f for f in report if f.check == "job-outside-period"]
        assert finding.message.startswith("1 job(s)")

    def test_flat_temperature_warns(self):
        temps = [
            TemperatureReading(time=float(t), system_id=1, node_id=t % 3, celsius=30.0)
            for t in range(5)
        ]
        report = validate_archive(
            Archive([system([fail(1.0)], temperatures=temps)])
        )
        assert any(f.check == "flat-temperature" for f in report)

    def test_duplicate_failure_rows_warn(self):
        """A log holding the same failure row twice (a duplicated entry)
        is flagged; rows that differ only outside the record ordering's
        (time, system, node) key are not."""
        twin = fail(3.0, node=2)
        other = FailureRecord(
            time=3.0, system_id=1, node_id=2, category=Category.SOFTWARE
        )
        failures = [twin, other, twin, fail(1.0), fail(2.0)]
        report = validate_archive(Archive([system(failures)]))
        [finding] = [f for f in report if f.check == "duplicate-failure"]
        assert finding.severity is Severity.WARNING
        assert finding.message.startswith("1 failure row(s) repeat")
        report = validate_archive(Archive([system([twin, other, fail(1.0)])]))
        assert not any(f.check == "duplicate-failure" for f in report)

    def test_duplicate_maintenance_rows_warn(self):
        repair = MaintenanceRecord(time=5.0, system_id=1, node_id=1)
        software = MaintenanceRecord(
            time=5.0, system_id=1, node_id=1, hardware_related=False
        )
        ds = system([fail(1.0)], maintenance=[repair, software, repair, repair])
        report = validate_archive(Archive([ds]))
        [finding] = [f for f in report if f.check == "duplicate-maintenance"]
        assert finding.message.startswith("2 maintenance row(s) repeat")
        ds = system([fail(1.0)], maintenance=[repair, software])
        assert not any(
            f.check == "duplicate-maintenance" for f in validate_archive(Archive([ds]))
        )

    def test_render_mentions_severity(self):
        report = validate_archive(Archive([system([])]))
        text = report.render()
        assert "warning" in text
