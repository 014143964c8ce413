"""Repair times, downtime and availability.

The LANL records carry a repair time for every outage; the paper uses
them implicitly (a node outage is an interruption) but does not analyse
them.  This module adds the standard repair-time view from the companion
literature [12]: mean time to repair by root cause, downtime share per
category, fitted repair-time distributions, and per-system availability
-- the operational quantities a checkpoint or scheduling model consumes
alongside the failure rates.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..records.dataset import SystemDataset
from ..records.taxonomy import Category, all_categories
from ..stats.descriptive import SampleSummary, summarize
from ..stats.distfit import DistFitError, DistributionFit, best_fit
from .cache import get_cache


class DowntimeAnalysisError(ValueError):
    """Raised when downtime data is absent or degenerate."""


@dataclass(frozen=True, slots=True)
class RepairTimeResult:
    """Repair-time statistics for one population of failures.

    Attributes:
        category: root cause analysed (None = all failures).
        summary: five-number summary of repair hours.
        fitted: AIC-best distribution fit of the repair times (None when
            fitting is impossible, e.g. all-equal samples).
    """

    category: Category | None
    summary: SampleSummary
    fitted: DistributionFit | None

    @property
    def mttr_hours(self) -> float:
        """Mean time to repair, hours."""
        return self.summary.mean


def _repair_hours(
    ds: SystemDataset, category: Category | None
) -> np.ndarray:
    """One system's positive repair hours, in record order, memoized on
    its own cache."""
    table = ds.failure_table
    return get_cache(ds).summary(
        ("repair_hours", category),
        lambda: table.downtime_hours[
            (table.downtime_hours > 0) & table.mask(category=category)
        ],
    )


def _fit_or_none(hours: np.ndarray) -> DistributionFit | None:
    try:
        return best_fit(hours)
    except DistFitError:
        return None


def repair_times(
    systems: Sequence[SystemDataset],
    category: Category | None = None,
) -> RepairTimeResult:
    """Repair-time statistics for one category (or all failures).

    The pooled fit is memoized on the first system's cache under the
    sha256 of the pooled sample's bytes: a content key cannot go stale,
    whichever systems are pooled.
    """
    if not systems:
        raise DowntimeAnalysisError("need at least one system")
    hours = np.concatenate([_repair_hours(ds, category) for ds in systems])
    if hours.size == 0:
        raise DowntimeAnalysisError(
            f"no repair times recorded for {category or 'any category'}"
        )
    fitted = None
    if hours.size >= 8:
        digest = hashlib.sha256(hours.tobytes()).hexdigest()
        fitted = get_cache(systems[0]).summary(
            ("repair_fit", category, digest), lambda: _fit_or_none(hours)
        )
    return RepairTimeResult(
        category=category, summary=summarize(hours), fitted=fitted
    )


def repair_times_by_category(
    systems: Sequence[SystemDataset],
) -> dict[Category, RepairTimeResult]:
    """Per-category repair-time statistics (categories with data only)."""
    out = {}
    for cat in all_categories():
        try:
            out[cat] = repair_times(systems, cat)
        except DowntimeAnalysisError:
            continue
    if not out:
        raise DowntimeAnalysisError("no repair times recorded at all")
    return out


def downtime_share_by_category(
    systems: Sequence[SystemDataset],
) -> Mapping[Category, float]:
    """Fraction of total downtime attributable to each root cause.

    A category can dominate downtime without dominating counts (few but
    long outages) -- the distinction operators budget by.
    """
    # Each category's positive hours, system after system in record order,
    # added left to right from 0.0 as a loop over the failures would (a
    # zero-hour outage adds exactly nothing).
    totals = {
        cat: float(np.cumsum(np.concatenate(
            [[0.0], *(_repair_hours(ds, cat) for ds in systems)]
        ))[-1])
        for cat in all_categories()
    }
    grand = sum(totals.values())
    if grand <= 0:
        raise DowntimeAnalysisError("no downtime recorded")
    return {cat: totals[cat] / grand for cat in totals}


@dataclass(frozen=True, slots=True)
class AvailabilityResult:
    """Availability accounting for one system.

    Attributes:
        system_id: the system.
        node_hours: total node-hours in the observation period.
        downtime_hours: summed outage repair time.
        maintenance_hours: summed unscheduled-maintenance duration.
        availability: fraction of node-hours the system was up.
    """

    system_id: int
    node_hours: float
    downtime_hours: float
    maintenance_hours: float

    @property
    def availability(self) -> float:
        lost = self.downtime_hours + self.maintenance_hours
        return max(0.0, 1.0 - lost / self.node_hours)

    @property
    def nines(self) -> float:
        """Availability expressed as 'number of nines'."""
        unavail = 1.0 - self.availability
        if unavail <= 0:
            return float("inf")
        return float(-np.log10(unavail))


def availability(ds: SystemDataset) -> AvailabilityResult:
    """Availability accounting for one system."""
    node_hours = ds.num_nodes * ds.period.length * 24.0
    # Added left to right, as the records' loop added them.
    downtime = float(sum(ds.failure_table.downtime_hours.tolist()))
    maintenance = float(sum(ds.maintenance.duration_hours.tolist()))
    if node_hours <= 0:
        raise DowntimeAnalysisError("empty observation period")
    return AvailabilityResult(
        system_id=ds.system_id,
        node_hours=node_hours,
        downtime_hours=downtime,
        maintenance_hours=maintenance,
    )


def render_downtime_report(systems: Sequence[SystemDataset]) -> str:
    """Text table: MTTR and downtime share per category, availability."""
    lines = ["== Companion: repair times and availability =="]
    try:
        by_cat = repair_times_by_category(systems)
        shares = downtime_share_by_category(systems)
    except DowntimeAnalysisError as exc:
        return "\n".join([*lines, str(exc)])
    lines.append(
        f"{'category':<14s} {'MTTR h':>8s} {'median':>8s} {'max':>9s} "
        f"{'share':>7s} {'best fit':>12s}"
    )
    for cat, r in by_cat.items():
        fit_name = r.fitted.family if r.fitted else "-"
        lines.append(
            f"{cat.value:<14s} {r.mttr_hours:>8.2f} {r.summary.median:>8.2f} "
            f"{r.summary.maximum:>9.1f} {shares.get(cat, 0.0):>7.1%} "
            f"{fit_name:>12s}"
        )
    for ds in systems:
        try:
            a = availability(ds)
        except DowntimeAnalysisError:
            continue
        lines.append(
            f"system {ds.system_id}: availability {a.availability:.5f} "
            f"({a.nines:.1f} nines; {a.downtime_hours:.0f} h outage + "
            f"{a.maintenance_hours:.0f} h maintenance)"
        )
    return "\n".join(lines)
