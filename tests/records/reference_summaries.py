"""The record-loop log summaries, kept as independent oracles.

:func:`~repro.records.usage.node_usage_summaries`,
:func:`~repro.records.usage.user_usage_summaries` and
:func:`~repro.records.environment.summarize_temperatures` take the
columnar logs every :class:`~repro.records.dataset.SystemDataset`
holds.  This module is the straightforward loop over record objects
each of them replaced: a per-node interval list merged after a
``list.sort()``, a per-user dict accumulated in job order, and a
per-node sample list.  The columnar summaries must match them bit for
bit, so tests run the same logs both ways.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.records.environment import (
    HIGH_TEMP_THRESHOLD_C,
    EnvironmentRecordError,
    NodeTemperatureSummary,
    TemperatureReading,
)
from repro.records.timeutil import ObservationPeriod
from repro.records.usage import JobRecord, NodeUsage, UsageError, UserUsage


def _merged_busy_time(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``[start, end)`` intervals."""
    if not intervals:
        return 0.0
    intervals.sort()
    total = 0.0
    cur_lo, cur_hi = intervals[0]
    for lo, hi in intervals[1:]:
        if lo > cur_hi:
            total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    total += cur_hi - cur_lo
    return total


def reference_node_usage_summaries(
    jobs: Iterable[JobRecord],
    num_nodes: int,
    period: ObservationPeriod,
) -> list[NodeUsage]:
    """Per-node usage of a job log, one record at a time."""
    if num_nodes < 1:
        raise UsageError(f"num_nodes must be >= 1, got {num_nodes}")
    intervals: list[list[tuple[float, float]]] = [[] for _ in range(num_nodes)]
    counts = np.zeros(num_nodes, dtype=np.int64)
    for job in jobs:
        lo = max(job.dispatch_time, period.start)
        hi = min(job.end_time, period.end)
        for node in job.node_ids:
            if node >= num_nodes:
                raise UsageError(
                    f"job {job.job_id} references node {node} but the system "
                    f"has only {num_nodes} nodes"
                )
            counts[node] += 1
            if hi > lo:
                intervals[node].append((lo, hi))
    out = []
    for node in range(num_nodes):
        busy = _merged_busy_time(intervals[node])
        out.append(
            NodeUsage(
                node_id=node,
                num_jobs=int(counts[node]),
                utilization=busy / period.length,
                busy_days=busy,
            )
        )
    return out


def reference_user_usage_summaries(jobs: Iterable[JobRecord]) -> list[UserUsage]:
    """Per-user usage of a job log, one record at a time."""
    pd: dict[int, float] = {}
    fails: dict[int, int] = {}
    for job in jobs:
        pd[job.user_id] = pd.get(job.user_id, 0.0) + job.processor_days
        fails[job.user_id] = fails.get(job.user_id, 0) + int(job.failed_due_to_node)
    summaries = [
        UserUsage(user_id=u, processor_days=pd[u], node_failed_jobs=fails[u])
        for u in pd
    ]
    summaries.sort(key=lambda s: s.processor_days, reverse=True)
    return summaries


def reference_summarize_temperatures(
    readings: Iterable[TemperatureReading], num_nodes: int
) -> list[NodeTemperatureSummary]:
    """Per-node temperature aggregates, one reading at a time."""
    if num_nodes < 1:
        raise EnvironmentRecordError(f"num_nodes must be >= 1, got {num_nodes}")
    samples: list[list[float]] = [[] for _ in range(num_nodes)]
    for r in readings:
        if r.node_id >= num_nodes:
            raise EnvironmentRecordError(
                f"reading references node {r.node_id} but the system has "
                f"only {num_nodes} nodes"
            )
        samples[r.node_id].append(r.celsius)
    out = []
    for node in range(num_nodes):
        vals = np.asarray(samples[node], dtype=float)
        if vals.size == 0:
            out.append(
                NodeTemperatureSummary(
                    node_id=node,
                    avg_temp=float("nan"),
                    max_temp=float("nan"),
                    temp_var=float("nan"),
                    num_hightemp=0,
                    num_readings=0,
                )
            )
            continue
        out.append(
            NodeTemperatureSummary(
                node_id=node,
                avg_temp=float(vals.mean()),
                max_temp=float(vals.max()),
                temp_var=float(vals.var()),
                num_hightemp=int((vals > HIGH_TEMP_THRESHOLD_C).sum()),
                num_readings=int(vals.size),
            )
        )
    return out
