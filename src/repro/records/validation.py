"""Archive consistency checking.

:func:`validate_archive` runs a battery of structural and statistical
sanity checks over an :class:`~repro.records.dataset.Archive` and returns
a report of findings.  The dataset constructors already reject hard
schema violations; the checks here catch *suspicious* data that is legal
but likely wrong (empty systems, failure storms, clock anomalies), which
is what an operator pointing the toolkit at their own logs needs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from typing import Iterable, Iterator

import numpy as np

from .dataset import Archive, SystemDataset
from .timeutil import Span


class Severity(enum.Enum):
    """Severity of a validation finding."""

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True, slots=True)
class Finding:
    """One validation finding.

    Attributes:
        severity: how bad it is.
        system_id: system concerned, or None for archive-wide findings.
        check: machine-readable identifier of the check that fired.
        message: human-readable explanation.
    """

    severity: Severity
    system_id: int | None
    check: str
    message: str


@dataclass
class ValidationReport:
    """Outcome of :func:`validate_archive`."""

    findings: list[Finding] = field(default_factory=list)

    def add(
        self, severity: Severity, system_id: int | None, check: str, message: str
    ) -> None:
        """Append a finding."""
        self.findings.append(Finding(severity, system_id, check, message))

    @property
    def ok(self) -> bool:
        """True when no ERROR-severity findings were produced."""
        return not any(f.severity is Severity.ERROR for f in self.findings)

    def __iter__(self) -> Iterator[Finding]:
        return iter(self.findings)

    def render(self) -> str:
        """Human-readable multi-line report."""
        if not self.findings:
            return "validation: no findings"
        lines = []
        for f in self.findings:
            where = f"system {f.system_id}" if f.system_id is not None else "archive"
            lines.append(f"[{f.severity}] {where} / {f.check}: {f.message}")
        return "\n".join(lines)


#: A node producing more than this multiple of the mean per-node failure
#: count is flagged (node 0 at LANL reaches 19-30X, so the default leaves
#: headroom above "normal" skew while still catching extreme outliers).
FAILURE_SKEW_FLAG_FACTOR = 10.0

#: More than this many failures inside a single day, system-wide, is
#: flagged as a failure storm worth a second look.
STORM_THRESHOLD_PER_DAY = 50


def _check_system(ds: SystemDataset, report: ValidationReport) -> None:
    sid = ds.system_id
    if not len(ds.failure_table):
        report.add(
            Severity.WARNING,
            sid,
            "no-failures",
            "system has no failure records; every analysis will be empty",
        )
        return
    if ds.period.length < Span.MONTH.days:
        report.add(
            Severity.ERROR,
            sid,
            "short-period",
            f"observation period of {ds.period.length:.1f} days is shorter "
            "than one month; monthly analyses are impossible",
        )
    counts = ds.failure_counts_per_node()
    mean = counts.mean()
    if mean > 0:
        worst = int(counts.argmax())
        factor = counts[worst] / mean
        if factor > FAILURE_SKEW_FLAG_FACTOR:
            report.add(
                Severity.INFO,
                sid,
                "failure-skew",
                f"node {worst} has {factor:.1f}X the mean per-node failure "
                f"count ({int(counts[worst])} vs {mean:.2f}); at LANL such "
                "nodes are typically login/launch nodes",
            )
    zero_frac = float((counts == 0).mean())
    if zero_frac > 0.9:
        report.add(
            Severity.WARNING,
            sid,
            "mostly-silent",
            f"{zero_frac:.0%} of nodes never failed; check that node ids in "
            "the failure log match the configured node count",
        )
    # failure storms: daily binning
    days = np.floor(ds.failure_table.times).astype(np.int64)
    if days.size:
        _, per_day = np.unique(days, return_counts=True)
        storms = int((per_day > STORM_THRESHOLD_PER_DAY).sum())
        if storms:
            report.add(
                Severity.INFO,
                sid,
                "failure-storm",
                f"{storms} day(s) with more than {STORM_THRESHOLD_PER_DAY} "
                "failures; correlated outages (e.g. power events) are likely",
            )
    # duplicated timestamps on the same node are legal but suspicious
    key = ds.failure_table.node_ids * 2**32 + days
    uniq, cnt = np.unique(key, return_counts=True)
    dups = int((cnt > 5).sum())
    if dups:
        report.add(
            Severity.WARNING,
            sid,
            "repeated-node-day",
            f"{dups} node-day(s) carry more than 5 outages; possible "
            "duplicate log entries or flapping node",
        )
    if ds.has_usage:
        jobs = ds.job_columns
        out_of_period = int(
            np.count_nonzero(
                (jobs.end_times < ds.period.start)
                | (jobs.submit_times >= ds.period.end)
            )
        )
        if out_of_period:
            report.add(
                Severity.WARNING,
                sid,
                "job-outside-period",
                f"{out_of_period} job(s) fall entirely outside the "
                "observation period",
            )
    if ds.has_temperature:
        temps = ds.temperature_columns.celsius
        if temps.size and float(np.ptp(temps)) == 0.0:
            report.add(
                Severity.WARNING,
                sid,
                "flat-temperature",
                "all temperature readings are identical; sensor data is "
                "probably broken and regressions on it will be degenerate",
            )


def _repeats(rows: Iterable[tuple]) -> int:
    """How many rows equal an earlier row: equal rows are adjacent once
    the rows are sorted."""
    ordered = sorted(rows)
    return sum(a == b for a, b in zip(ordered, ordered[1:]))


def _check_duplicates(ds: SystemDataset, report: ValidationReport) -> None:
    """Failure and maintenance rows equal in every field, which the
    record ordering (time, system, node) alone does not tell apart."""
    for check, log, table in (
        ("duplicate-failure", "failure", ds.failure_table),
        ("duplicate-maintenance", "maintenance", ds.maintenance),
    ):
        columns = (getattr(table, f.name).tolist() for f in fields(table))
        count = _repeats(zip(*columns))
        if count:
            report.add(
                Severity.WARNING,
                ds.system_id,
                check,
                f"{count} {log} row(s) repeat an earlier row in every "
                "field; likely duplicated log entries, which every "
                "count-based analysis would count twice",
            )


def validate_archive(archive: Archive) -> ValidationReport:
    """Run all archive-level and per-system checks; return the report."""
    report = ValidationReport()
    for ds in archive:
        _check_system(ds, report)
        _check_duplicates(ds, report)
    if not archive.neutron_series:
        report.add(
            Severity.INFO,
            None,
            "no-neutrons",
            "no neutron monitor series; the Section IX (cosmic ray) "
            "analysis will be skipped",
        )
    has_usage = any(ds.has_usage for ds in archive)
    if not has_usage:
        report.add(
            Severity.INFO,
            None,
            "no-usage",
            "no system carries a job log; Sections V, VI and X cannot run",
        )
    has_layout = any(ds.has_layout for ds in archive)
    if not has_layout:
        report.add(
            Severity.INFO,
            None,
            "no-layout",
            "no system carries a machine layout; same-rack correlations "
            "(Section III-B) cannot run",
        )
    return report
