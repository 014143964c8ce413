"""Job-log generation for usage systems (substitute for LANL systems 8/20 logs).

Produces a workload with the statistical features Sections V, VI and X
rely on:

* a heavy-tailed user population (>400 users, with 50 "heavy" users
  dominating processor-days) drawn from Zipf-like weights;
* per-user *riskiness* multipliers (lognormal): while a risky user's job
  runs on a node, the node's hazard is elevated -- this is the injected
  mechanism behind "some users experience a significantly higher failure
  rate per processor-day" (Figure 8);
* per-node scheduling popularity (lognormal), with node 0 strongly
  over-weighted -- the login/launch-node effect behind Figures 4-7;
* multi-node jobs with geometric size distribution and lognormal
  runtimes.

Because failures are generated *after* usage (the hazard model consumes
the usage arrays), this module emits the job log as the arrays of
:class:`UsageTraces`; the archive builder later turns them into
:class:`~repro.records.usage.JobColumns` once node-failure overlap (the
``failed_due_to_node`` flag) can be resolved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ArchiveConfig, SystemSpec


@dataclass(frozen=True)
class UsageTraces:
    """Columnar job log plus the per-day arrays the hazard model consumes.

    Jobs are stored as parallel arrays (sorted by submit time): the
    failure-overlap resolution in the archive builder and the hazard
    model both work on whole columns, and the archive builder turns the
    arrays into the dataset's job columns without a per-job object.

    Attributes:
        job_submit: ``(J,)`` submit times.
        job_dispatch: ``(J,)`` dispatch times.
        job_end: ``(J,)`` end times.
        job_user: ``(J,)`` submitting user ids.
        job_node_offsets: ``(J+1,)`` offsets into :attr:`job_nodes`.
        job_nodes: per-job sorted unique node ids, concatenated; job
            ``j`` ran on ``job_nodes[job_node_offsets[j]:job_node_offsets[j+1]]``.
        processors_per_node: processors each assigned node contributes.
        jobs_started: ``(T, N)`` count of jobs dispatched to each node
            each day.
        busy_fraction: ``(T, N)`` fraction of each day each node had at
            least one job (clipped union approximation).
        user_risk: ``(T, N)`` maximum riskiness of the users running on
            the node that day (0 when idle).
        user_risks: per-user riskiness multipliers, indexed by user id.
    """

    job_submit: np.ndarray
    job_dispatch: np.ndarray
    job_end: np.ndarray
    job_user: np.ndarray
    job_node_offsets: np.ndarray
    job_nodes: np.ndarray
    processors_per_node: int
    jobs_started: np.ndarray
    busy_fraction: np.ndarray
    user_risk: np.ndarray
    user_risks: np.ndarray

    @property
    def n_jobs(self) -> int:
        return int(self.job_submit.size)


#: Mean nodes per job implied by the geometric size distribution below;
#: used to convert per-node job density into a system-level arrival count.
_MEAN_NODES_PER_JOB = 1.9
#: Geometric parameter for job node-counts (P(size=k) ~ (1-p)^(k-1) p).
_JOB_SIZE_P = 0.55
_MAX_JOB_NODES = 32
#: Lognormal runtime parameters (log-days): median ~0.35 days, heavy tail.
_RUNTIME_LOG_MU = -1.05
_RUNTIME_LOG_SIGMA = 1.1
_MAX_RUNTIME_DAYS = 14.0
#: Mean queueing delay in days.
_QUEUE_DELAY_MEAN = 0.08
#: Zipf-like exponent for user activity weights.
_USER_ZIPF_EXPONENT = 0.9
#: Scheduling-popularity boost of node 0 (login/launch node).
_NODE0_POPULARITY = 6.0
#: Lognormal sigma of per-node scheduling popularity.
_NODE_POPULARITY_SIGMA = 0.5
#: Lognormal sigma of per-node job-duration scaling.  Decorrelates a
#: node's utilization from its job count (some nodes run few long jobs,
#: others many short ones), which keeps the Section X regression's
#: ``num_jobs`` and ``util`` columns from being collinear.
_NODE_RUNTIME_SIGMA = 0.7


def generate_usage(
    spec: SystemSpec,
    config: ArchiveConfig,
    rng: np.random.Generator,
) -> UsageTraces:
    """Generate the usage trace for one system.

    Args:
        spec: the system (must have ``has_usage`` set by the caller's
            convention; the function itself only needs the node count).
        config: archive-level configuration (duration, density, users).
        rng: dedicated random stream.
    """
    n_nodes = spec.num_nodes
    duration = config.duration_days
    n_days = int(math.ceil(duration))
    effects = config.effects

    expected_jobs = (
        config.jobs_per_node_per_year * n_nodes * config.years / _MEAN_NODES_PER_JOB
    )
    n_jobs = int(rng.poisson(expected_jobs)) if expected_jobs > 0 else 0

    # Per-user weights and riskiness.
    ranks = np.arange(1, config.num_users + 1, dtype=float)
    user_weights = 1.0 / ranks**_USER_ZIPF_EXPONENT
    user_weights /= user_weights.sum()
    user_risks = rng.lognormal(0.0, effects.user_risk_sigma, config.num_users)

    # Per-node scheduling popularity; node 0 is the login/launch node.
    node_weights = rng.lognormal(0.0, _NODE_POPULARITY_SIGMA, n_nodes)
    node_weights[0] *= _NODE0_POPULARITY
    node_weights /= node_weights.sum()
    # Per-node job-duration scaling (see _NODE_RUNTIME_SIGMA).
    node_runtime = rng.lognormal(0.0, _NODE_RUNTIME_SIGMA, n_nodes)

    jobs_started = np.zeros((n_days, n_nodes), dtype=np.float32)
    busy_occupancy = np.zeros((n_days, n_nodes), dtype=np.float32)
    user_risk = np.zeros((n_days, n_nodes), dtype=np.float32)

    if n_jobs == 0:
        return UsageTraces(
            job_submit=np.empty(0, dtype=float),
            job_dispatch=np.empty(0, dtype=float),
            job_end=np.empty(0, dtype=float),
            job_user=np.empty(0, dtype=np.int64),
            job_node_offsets=np.zeros(1, dtype=np.int64),
            job_nodes=np.empty(0, dtype=np.int64),
            processors_per_node=spec.processors_per_node,
            jobs_started=jobs_started,
            busy_fraction=busy_occupancy,
            user_risk=user_risk,
            user_risks=user_risks,
        )

    submit = np.sort(rng.uniform(0.0, duration, n_jobs))
    queue_delay = rng.exponential(_QUEUE_DELAY_MEAN, n_jobs)
    runtime = np.minimum(
        rng.lognormal(_RUNTIME_LOG_MU, _RUNTIME_LOG_SIGMA, n_jobs),
        _MAX_RUNTIME_DAYS,
    )
    users = rng.choice(config.num_users, size=n_jobs, p=user_weights)
    sizes = np.minimum(
        rng.geometric(_JOB_SIZE_P, n_jobs), min(_MAX_JOB_NODES, n_nodes)
    )
    # One bulk weighted draw for all jobs' node picks, then de-duplicated
    # per job (a job that draws the same node twice simply runs smaller).
    all_picks = rng.choice(n_nodes, size=int(sizes.sum()), p=node_weights)

    eps = 1e-6
    # De-duplicate each job's node picks without a per-job np.unique: a
    # composite (job, node) key makes one global np.unique yield every
    # job's sorted unique nodes as a contiguous "pair" block.
    job_of_pick = np.repeat(np.arange(n_jobs, dtype=np.int64), sizes)
    pair_key = np.unique(job_of_pick * n_nodes + all_picks.astype(np.int64))
    pair_job = pair_key // n_nodes
    pair_node = pair_key % n_nodes
    pair_counts = np.bincount(pair_job, minlength=n_jobs)
    offsets = np.zeros(n_jobs + 1, dtype=np.int64)
    np.cumsum(pair_counts, out=offsets[1:])
    # First (= lowest-id) node of each job scales its runtime.
    first_node = pair_node[offsets[:-1]]

    dispatch = np.minimum(submit + queue_delay, duration - eps)
    scaled_runtime = runtime * node_runtime[first_node]
    end = np.minimum(
        dispatch + np.minimum(scaled_runtime, _MAX_RUNTIME_DAYS), duration - eps
    )
    np.maximum(end, dispatch, out=end)
    first_day = dispatch.astype(np.int64)
    last_day = np.minimum(end.astype(np.int64), n_days - 1)

    # Expand every (job, node) pair into its active (day, node) cells.
    p_first = first_day[pair_job]
    p_len = last_day[pair_job] - p_first + 1
    cell_pair = np.repeat(np.arange(pair_job.size), p_len)
    group_start = np.zeros(pair_job.size, dtype=np.int64)
    np.cumsum(p_len[:-1], out=group_start[1:])
    cell_day = p_first[cell_pair] + (
        np.arange(int(p_len.sum()), dtype=np.int64) - group_start[cell_pair]
    )
    cell_job = pair_job[cell_pair]
    cell_node = pair_node[cell_pair]
    overlap = np.minimum(end[cell_job], cell_day + 1.0) - np.maximum(
        dispatch[cell_job], cell_day.astype(float)
    )
    active = overlap > 0.0

    flat = first_day[pair_job] * n_nodes + pair_node
    jobs_started += (
        np.bincount(flat, minlength=n_days * n_nodes)
        .reshape(n_days, n_nodes)
        .astype(np.float32)
    )
    cell_flat = cell_day[active] * n_nodes + cell_node[active]
    busy_occupancy += (
        np.bincount(cell_flat, weights=overlap[active], minlength=n_days * n_nodes)
        .reshape(n_days, n_nodes)
        .astype(np.float32)
    )
    np.clip(busy_occupancy, 0.0, 1.0, out=busy_occupancy)
    np.maximum.at(
        user_risk,
        (cell_day[active], cell_node[active]),
        user_risks[users[cell_job[active]]].astype(np.float32),
    )

    return UsageTraces(
        job_submit=submit,
        job_dispatch=dispatch,
        job_end=end,
        job_user=users.astype(np.int64),
        job_node_offsets=offsets,
        job_nodes=pair_node,
        processors_per_node=spec.processors_per_node,
        jobs_started=jobs_started,
        busy_fraction=busy_occupancy,
        user_risk=user_risk,
        user_risks=user_risks,
    )
