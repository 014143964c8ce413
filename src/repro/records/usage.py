"""Job-log record types and per-node usage summaries.

The LANL usage logs (available for systems 8 and 20) record, per job:
submission time, dispatch time, end time, the number of requested
processors, the submitting user and the node(s) the job ran on.  The
paper uses them to derive two per-node usage metrics (Section V):

* **utilization** -- the fraction of time at least one job is assigned to
  the node;
* **number of jobs** -- how many jobs were scheduled on the node over its
  lifetime;

and a per-user metric (Section VI): failures experienced per processor-day
of usage, restricted to job failures caused by node failures (not
application bugs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from .timeutil import ObservationPeriod


class UsageError(ValueError):
    """Raised when a job record is internally inconsistent."""


@dataclass(frozen=True, slots=True, order=True)
class JobRecord:
    """One job in a system's usage log.

    Ordering is by ``(submit_time, system_id, job_id)``.

    Attributes:
        submit_time: when the job entered the queue (days).
        system_id: system the job ran on.
        job_id: unique job identifier within the system.
        dispatch_time: when the job started running (days).
        end_time: when the job finished or was killed (days).
        user_id: numeric identifier of the submitting user.
        num_processors: processors requested by the job.
        node_ids: nodes the job was assigned to.
        failed_due_to_node: True when the job died because an underlying
            node failed (the only kind of job failure Section VI counts).
    """

    submit_time: float
    system_id: int
    job_id: int
    dispatch_time: float = field(compare=False)
    end_time: float = field(compare=False)
    user_id: int = field(compare=False)
    num_processors: int = field(compare=False)
    node_ids: tuple[int, ...] = field(compare=False)
    failed_due_to_node: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if not (
            math.isfinite(self.submit_time)
            and math.isfinite(self.dispatch_time)
            and math.isfinite(self.end_time)
        ):
            raise UsageError(
                f"job times must be finite, got submit_time={self.submit_time!r}, "
                f"dispatch_time={self.dispatch_time!r}, end_time={self.end_time!r}"
            )
        if self.submit_time < 0:
            raise UsageError(f"submit_time must be >= 0, got {self.submit_time}")
        if self.dispatch_time < self.submit_time:
            raise UsageError(
                f"dispatch_time {self.dispatch_time} precedes submit_time "
                f"{self.submit_time}"
            )
        if self.end_time < self.dispatch_time:
            raise UsageError(
                f"end_time {self.end_time} precedes dispatch_time "
                f"{self.dispatch_time}"
            )
        if self.num_processors < 1:
            raise UsageError(
                f"num_processors must be >= 1, got {self.num_processors}"
            )
        if not self.node_ids:
            raise UsageError("a job must be assigned to at least one node")
        if min(self.node_ids) < 0:
            raise UsageError(f"negative node id in {self.node_ids!r}")
        if len(set(self.node_ids)) != len(self.node_ids):
            raise UsageError(f"duplicate node ids in {self.node_ids!r}")

    @property
    def runtime_days(self) -> float:
        """Wall-clock runtime of the job in days."""
        return self.end_time - self.dispatch_time

    @property
    def processor_days(self) -> float:
        """Processor-days consumed by the job (runtime x processors)."""
        return self.runtime_days * self.num_processors


def record_order(*keys: np.ndarray) -> np.ndarray | None:
    """The stable sort of rows by ``keys`` (primary key first), or
    ``None`` if the rows are in that order already: an O(n) check, so
    columns built in record order are never sorted."""
    tied = None
    for key in keys:
        before, after = key[:-1], key[1:]
        descending = before > after
        if tied is not None:
            descending &= tied
        if descending.any():
            return np.lexsort(keys[::-1])
        tied = before == after if tied is None else tied & (before == after)
    return None


def rows_of(log, index):
    """The rows of a column log at ``index`` (row indices or a slice),
    as a log of its own type."""
    return type(log)(*(getattr(log, f.name)[index] for f in fields(log)))


def sorted_rows(log, *keys: np.ndarray):
    """``log`` with its rows in the order :func:`record_order` gives
    ``keys``: ``log`` itself if they are in it already."""
    order = record_order(*keys)
    return log if order is None else rows_of(log, order)


def check_rows(log, error: type[ValueError], rows: str) -> None:
    """Raise ``error`` if ``log.invalid_rows()`` holds a row, naming
    how many ``rows`` are invalid and the first."""
    bad = np.flatnonzero(log.invalid_rows())
    if bad.size:
        raise error(f"{bad.size} invalid {rows}, the first at row {bad[0]}")


def checked_in_record_order(log):
    """A column log (a failure, maintenance, job or temperature table, or
    the neutron series) after its ``check()``, in record order -- once
    per log object.

    The log returned is marked as checked, so handing it on (a reader's
    result to :class:`~repro.records.dataset.SystemDataset`) returns it
    as it is instead of checking and sorting its columns again.
    """
    if log.__dict__.get("_checked", False):
        return log
    log.check()
    log = log.in_record_order()
    object.__setattr__(log, "_checked", True)
    return log


def run_heads(sorted_keys: np.ndarray) -> np.ndarray:
    """Mask of the first entry of each run of equal sorted keys."""
    head = np.empty(sorted_keys.size, dtype=bool)
    head[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=head[1:])
    return head


def sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of an integer array, ascending: ``np.unique``'s
    result from a sort and a neighbour compare.  numpy 2 serves
    ``np.unique`` on integers through a hash table, which costs far more
    than the sort on the key arrays of this package."""
    ordered = np.sort(keys, axis=None)
    del keys  # a temporary argument is freed before the mask and result
    return ordered[run_heads(ordered)]


@dataclass(frozen=True)
class JobColumns:
    """A job log as parallel numpy columns (one row per job).

    The columnar twin of a ``list[JobRecord]``, and the form the usage
    summarizers take: it skips materializing hundreds of thousands of
    record objects when the archive cache already stores the log as
    arrays.  Node assignments are ragged, so they are kept in
    CSR layout: job ``i`` ran on ``node_ids[node_offsets[i]:
    node_offsets[i + 1]]``.

    Attributes:
        submit_times: per-job submission time (days).
        dispatch_times: per-job dispatch time (days).
        end_times: per-job end time (days).
        user_ids: per-job submitting user.
        num_processors: per-job processor count.
        failed_due_to_node: per-job node-caused-failure flag.
        job_ids: per-job identifier (used in error messages).
        node_offsets: CSR offsets into ``node_ids``; length is the job
            count plus one.
        node_ids: concatenated node assignments of all jobs.
    """

    submit_times: np.ndarray
    dispatch_times: np.ndarray
    end_times: np.ndarray
    user_ids: np.ndarray
    num_processors: np.ndarray
    failed_due_to_node: np.ndarray
    job_ids: np.ndarray
    node_offsets: np.ndarray
    node_ids: np.ndarray

    def __len__(self) -> int:
        return int(self.dispatch_times.size)

    @classmethod
    def from_records(cls, jobs: Sequence[JobRecord]) -> "JobColumns":
        """Build columns from record objects, preserving job order."""
        n = len(jobs)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(
            np.fromiter((len(j.node_ids) for j in jobs), np.int64, n),
            out=offsets[1:],
        )
        return cls(
            submit_times=np.fromiter((j.submit_time for j in jobs), float, n),
            dispatch_times=np.fromiter(
                (j.dispatch_time for j in jobs), float, n
            ),
            end_times=np.fromiter((j.end_time for j in jobs), float, n),
            user_ids=np.fromiter((j.user_id for j in jobs), np.int64, n),
            num_processors=np.fromiter(
                (j.num_processors for j in jobs), np.int64, n
            ),
            failed_due_to_node=np.fromiter(
                (j.failed_due_to_node for j in jobs), bool, n
            ),
            job_ids=np.fromiter((j.job_id for j in jobs), np.int64, n),
            node_offsets=offsets,
            node_ids=np.fromiter(
                (node for j in jobs for node in j.node_ids),
                np.int64,
                int(offsets[-1]),
            ),
        )

    def invalid_rows(self) -> np.ndarray:
        """Mask of the jobs :class:`JobRecord` would reject: every
        ``__post_init__`` check, evaluated on the columns."""
        s, d, e = self.submit_times, self.dispatch_times, self.end_times
        bad = ~(np.isfinite(s) & np.isfinite(d) & np.isfinite(e))
        bad |= (s < 0) | (d < s) | (e < d) | (self.num_processors < 1)
        counts = np.diff(self.node_offsets)
        bad |= counts == 0
        job_of = np.repeat(np.arange(len(self)), counts)
        bad[job_of[self.node_ids < 0]] = True
        # A duplicate shows as equal neighbours once each job's nodes
        # are sorted; only jobs on several nodes can have one.
        multi = np.repeat(counts > 1, counts)
        jobs, nodes = job_of[multi], self.node_ids[multi]
        order = np.lexsort((nodes, jobs))
        jobs, nodes = jobs[order], nodes[order]
        dup = (jobs[1:] == jobs[:-1]) & (nodes[1:] == nodes[:-1])
        bad[jobs[1:][dup]] = True
        return bad

    def check(self) -> None:
        """Raise :class:`UsageError` if a job breaks a :class:`JobRecord`
        invariant."""
        bad = np.flatnonzero(self.invalid_rows())
        if bad.size:
            first = int(self.job_ids[bad[0]])
            raise UsageError(f"{bad.size} invalid jobs, the first with job_id {first}")

    def in_record_order(self) -> "JobColumns":
        """These jobs in the order their records sort in: a log belongs to
        one system, so by ``(submit_time, job_id)``."""
        order = record_order(self.submit_times, self.job_ids)
        return self if order is None else self.take(order)

    def take(self, order: np.ndarray) -> "JobColumns":
        """The jobs at the row indices ``order``, in that order."""
        counts = np.diff(self.node_offsets)[order]
        offsets = np.zeros(len(order) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        # Token k of new job j sits at the old start of job order[j] + k.
        tokens = np.repeat(self.node_offsets[:-1][order] - offsets[:-1], counts)
        tokens += np.arange(offsets[-1])
        return JobColumns(
            submit_times=self.submit_times[order],
            dispatch_times=self.dispatch_times[order],
            end_times=self.end_times[order],
            user_ids=self.user_ids[order],
            num_processors=self.num_processors[order],
            failed_due_to_node=self.failed_due_to_node[order],
            job_ids=self.job_ids[order],
            node_offsets=offsets,
            node_ids=self.node_ids[tokens],
        )


@dataclass(frozen=True, slots=True)
class NodeUsage:
    """Per-node usage summary derived from a job log.

    Attributes:
        node_id: the node.
        num_jobs: number of jobs that were scheduled on the node.
        utilization: fraction of the observation period during which at
            least one job was assigned to the node, in ``[0, 1]``.
        busy_days: absolute busy time in days (``utilization * period``).
    """

    node_id: int
    num_jobs: int
    utilization: float
    busy_days: float


def node_usage_summaries(
    jobs: JobColumns, num_nodes: int, period: ObservationPeriod
) -> list[NodeUsage]:
    """Compute per-node usage summaries for every node of a system.

    A node is *utilized* at time t if at least one job is assigned to it
    (the paper's definition); overlapping job intervals on the same node
    are merged before measuring busy time.  Jobs are clipped to the
    observation period.

    Args:
        jobs: the system's job log.
        num_nodes: total node count (nodes without jobs get zero usage).
        period: the system's observation period.

    Returns:
        One :class:`NodeUsage` per node id in ``[0, num_nodes)``.
    """
    if num_nodes < 1:
        raise UsageError(f"num_nodes must be >= 1, got {num_nodes}")
    nodes = jobs.node_ids
    if nodes.size and int(nodes.max()) >= num_nodes:
        pos = int(np.argmax(nodes >= num_nodes))
        job = int(np.searchsorted(jobs.node_offsets, pos, side="right")) - 1
        raise UsageError(
            f"job {int(jobs.job_ids[job])} references node {int(nodes[pos])} "
            f"but the system has only {num_nodes} nodes"
        )
    counts = np.bincount(nodes, minlength=num_nodes)
    reps = np.diff(jobs.node_offsets)
    lo = np.repeat(np.maximum(jobs.dispatch_times, period.start), reps)
    hi = np.repeat(np.minimum(jobs.end_times, period.end), reps)
    keep = hi > lo
    sel_nodes = nodes[keep]
    lo = lo[keep]
    hi = hi[keep]
    # Each node's intervals by start, then end: the merge below walks
    # them in start order.
    order = np.lexsort((hi, lo, sel_nodes))
    sel_nodes = sel_nodes[order]
    lo = lo[order]
    hi = hi[order]
    bounds = np.searchsorted(sel_nodes, np.arange(num_nodes + 1))
    busy = np.zeros(num_nodes, dtype=float)
    for node in np.unique(sel_nodes):
        l = lo[bounds[node] : bounds[node + 1]]
        h = hi[bounds[node] : bounds[node + 1]]
        # Running max of interval ends; a new merged run starts where an
        # interval's start clears everything seen so far.  Because a run's
        # first start exceeds every earlier end, the global running max
        # equals the within-run one, so run lengths fall out directly.
        m = np.maximum.accumulate(h)
        new_run = np.empty(l.size, dtype=bool)
        new_run[0] = True
        np.greater(l[1:], m[:-1], out=new_run[1:])
        run_starts = np.flatnonzero(new_run)
        run_ends = np.append(run_starts[1:], l.size) - 1
        # A Python-level sum over the run lengths adds them one at a
        # time, left to right, as a loop over the merged runs would.
        busy[node] = sum((m[run_ends] - l[run_starts]).tolist())
    return [
        NodeUsage(
            node_id=node,
            num_jobs=int(counts[node]),
            utilization=float(busy[node]) / period.length,
            busy_days=float(busy[node]),
        )
        for node in range(num_nodes)
    ]


@dataclass(frozen=True, slots=True)
class UserUsage:
    """Per-user usage and node-caused failure summary (Section VI).

    Attributes:
        user_id: the user.
        processor_days: total processor-days consumed by the user's jobs.
        node_failed_jobs: number of the user's jobs that died because of a
            node failure.
        failures_per_processor_day: the paper's Figure 8 metric.
    """

    user_id: int
    processor_days: float
    node_failed_jobs: int

    @property
    def failures_per_processor_day(self) -> float:
        """Node-caused job failures per processor-day of usage."""
        if self.processor_days <= 0:
            return 0.0
        return self.node_failed_jobs / self.processor_days


def user_usage_summaries(jobs: JobColumns) -> list[UserUsage]:
    """Aggregate a job log into per-user usage summaries.

    Returns one :class:`UserUsage` per distinct user, sorted by decreasing
    processor-days (the paper focuses on the 50 heaviest users); users
    tied in processor-days keep the order of their first jobs.  Each
    user's processor-days add up in job order (``ufunc.at``).
    """
    users, inverse = np.unique(jobs.user_ids, return_inverse=True)
    if users.size == 0:
        return []
    pdays = (jobs.end_times - jobs.dispatch_times) * jobs.num_processors
    totals = np.zeros(users.size, dtype=float)
    np.add.at(totals, inverse, pdays)
    fails = np.zeros(users.size, dtype=np.int64)
    np.add.at(fails, inverse, jobs.failed_due_to_node.astype(np.int64))
    first_seen = np.full(users.size, len(jobs), dtype=np.int64)
    np.minimum.at(first_seen, inverse, np.arange(len(jobs), dtype=np.int64))
    order = np.lexsort((first_seen, -totals))
    return [
        UserUsage(
            user_id=int(users[u]),
            processor_days=float(totals[u]),
            node_failed_jobs=int(fails[u]),
        )
        for u in order
    ]

