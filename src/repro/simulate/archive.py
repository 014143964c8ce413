"""Archive orchestration: generate a complete LANL-like dataset.

:func:`make_archive` runs every generator component in dependency order
for each system of the configured catalogue:

1. machine layout (group-1 systems);
2. usage traces (systems with job logs) -- needed first because the
   hazard model consumes them;
3. the site-wide neutron series (shared by all systems);
4. stressor events (power, fans, chillers) with their boost schedules,
   direct failures and maintenance events;
5. the day-stepped organic failure process;
6. organic maintenance, temperature series, and job-failure resolution.

Every component draws from its own named RNG stream, so archives are
bit-reproducible from ``config.seed`` and components can be re-tuned
without perturbing each other.

Every log is built as columns, and each system's
:class:`~repro.records.dataset.SystemDataset` is built from them by its
checked constructor, as the CSV loader and the archive cache build it,
without a record being built.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from ..records.dataset import Archive, SystemDataset
from ..records.environment import TemperatureColumns
from ..records.failure import MaintenanceTable
from ..records.layout import MachineLayout, regular_layout
from ..records.timeutil import DAYS_PER_YEAR, ObservationPeriod
from ..records.usage import JobColumns
from ..telemetry import counter_add, span, tracing
from .config import ArchiveConfig, SystemSpec, small_config
from .failures import simulate_failures
from .neutrons import generate_neutron_series
from .power import generate_stressors, rows_table
from .rng import RngStreams
from .temperature import generate_temperatures
from .usage import UsageTraces, generate_usage


def _rack_mapping(layout: MachineLayout | None, num_nodes: int) -> np.ndarray | None:
    if layout is None:
        return None
    return np.array([layout.rack_of(node) for node in range(num_nodes)], dtype=np.int64)


def _organic_maintenance(
    spec: SystemSpec,
    config: ArchiveConfig,
    rng: np.random.Generator,
) -> MaintenanceTable:
    """Background unscheduled-maintenance events, uniform in time."""
    rate = config.effects.maintenance_rate_per_year
    duration = config.duration_days
    rows = []
    counts = rng.poisson(rate * duration / DAYS_PER_YEAR, size=spec.num_nodes)
    for node in np.nonzero(counts)[0]:
        for t in rng.uniform(0.0, duration, counts[node]):
            rows.append((float(t), int(node), True, float(rng.lognormal(1.2, 0.8))))
    return rows_table(MaintenanceTable, rows)


def _concatenated(*logs):
    """The rows of column logs of one type, one log after another, in
    record order: rows tied on the sort key keep that order."""
    return type(logs[0])(
        *(np.concatenate([getattr(log, f.name) for log in logs]) for f in fields(logs[0]))
    ).in_record_order()


def _resolve_job_failures(
    usage: UsageTraces,
    failure_times_by_node: list[np.ndarray],
    config: ArchiveConfig,
    rng: np.random.Generator,
) -> JobColumns:
    """The job log of the usage traces, marking node-caused job failures.

    A job failed due to a node failure iff one of its nodes recorded an
    outage strictly inside the job's ``(dispatch, end]`` run interval --
    plus an extra risk term for high-risk users, modelling node-attributed
    job kills whose outage the overlap marking misses (the Section VI
    mechanism: some users' access patterns surface latent hard errors).
    """
    n_jobs = usage.n_jobs
    if n_jobs == 0:
        return JobColumns.from_records(())
    offsets = usage.job_node_offsets
    sizes = np.diff(offsets)
    pair_job = np.repeat(np.arange(n_jobs, dtype=np.int64), sizes)
    pair_node = usage.job_nodes
    dispatch = usage.job_dispatch
    end = usage.job_end

    # Overlap test, grouped by node so each node's sorted failure times
    # are searched once for all jobs touching that node.
    failed = np.zeros(n_jobs, dtype=bool)
    order = np.argsort(pair_node, kind="stable")
    grouped_nodes = pair_node[order]
    bounds = np.flatnonzero(np.diff(grouped_nodes)) + 1
    for sel in np.split(order, bounds):
        times = failure_times_by_node[int(pair_node[sel[0]])]
        if times.size == 0:
            continue
        jobs_here = pair_job[sel]
        i = np.searchsorted(times, dispatch[jobs_here], side="right")
        ok = i < times.size
        hit = np.zeros(sel.size, dtype=bool)
        hit[ok] = times[i[ok]] <= end[jobs_here][ok]
        failed[jobs_here[hit]] = True

    # Extra risk term for non-failed jobs of high-risk users.  The
    # uniform draws are batched in ascending job order, consuming the
    # stream exactly as the old one-draw-per-eligible-job loop did.
    coef = config.effects.user_extra_fail_coef
    if coef > 0:
        nprocs = (sizes * usage.processors_per_node).astype(float)
        excess = np.maximum(usage.user_risks[usage.job_user] - 1.0, 0.0)
        processor_days = (end - dispatch) * nprocs
        p_extra = np.minimum(0.5, coef * processor_days * excess)
        eligible = ~failed & (p_extra > 0)
        n_eligible = int(eligible.sum())
        if n_eligible:
            draws = rng.random(n_eligible)
            extra = np.zeros(n_jobs, dtype=bool)
            extra[eligible] = draws < p_extra[eligible]
            failed |= extra

    # Job j is the j-th submitted: ids follow the submit-time order.
    return JobColumns(
        submit_times=usage.job_submit,
        dispatch_times=dispatch,
        end_times=end,
        user_ids=usage.job_user,
        num_processors=sizes * usage.processors_per_node,
        failed_due_to_node=failed,
        job_ids=np.arange(n_jobs, dtype=np.int64),
        node_offsets=offsets,
        node_ids=pair_node,
    )


def generate_system(
    spec: SystemSpec,
    config: ArchiveConfig,
    streams: RngStreams,
    flux_per_day: np.ndarray,
) -> SystemDataset:
    """Generate one system's complete dataset."""
    with span("simulate.system", system_id=spec.system_id):
        return _generate_system(spec, config, streams, flux_per_day)


def _generate_system(
    spec: SystemSpec,
    config: ArchiveConfig,
    streams: RngStreams,
    flux_per_day: np.ndarray,
) -> SystemDataset:
    sid = spec.system_id
    period = ObservationPeriod(0.0, config.duration_days)

    layout = (
        regular_layout(spec.num_nodes, spec.nodes_per_rack)
        if spec.has_layout
        else None
    )
    rack_of = _rack_mapping(layout, spec.num_nodes)

    usage = (
        generate_usage(spec, config, streams.get(f"system-{sid}/usage"))
        if spec.has_usage
        else None
    )

    stressors = generate_stressors(
        spec, config, streams.get(f"system-{sid}/stressors"), rack_of
    )

    organic = simulate_failures(
        spec,
        config,
        streams.get(f"system-{sid}/failures"),
        rack_of,
        usage,
        flux_per_day,
        stressors,
    )
    failures = _concatenated(organic, stressors.failures)

    maintenance = _concatenated(
        stressors.maintenance,
        _organic_maintenance(spec, config, streams.get(f"system-{sid}/maintenance")),
    )

    temperatures = (
        generate_temperatures(
            spec,
            config,
            streams.get(f"system-{sid}/temperature"),
            stressors.events,
        )
        if spec.has_temperature
        else TemperatureColumns.from_records(())
    )

    jobs = JobColumns.from_records(())
    if usage is not None:
        # Per-node failure-time arrays: failures are time-sorted, so a
        # stable sort by node yields sorted per-node blocks directly.
        f_times, f_nodes = failures.times, failures.node_ids
        order = np.argsort(f_nodes, kind="stable")
        empty = np.empty(0, dtype=float)
        failure_times = [empty] * spec.num_nodes
        if len(failures):
            grouped = f_nodes[order]
            bounds = np.flatnonzero(np.diff(grouped)) + 1
            for sel in np.split(order, bounds):
                failure_times[int(f_nodes[sel[0]])] = f_times[sel]
        jobs = _resolve_job_failures(
            usage,
            failure_times,
            config,
            streams.get(f"system-{sid}/job-failures"),
        )

    counter_add("simulate.events", len(organic), hazard="organic")
    counter_add("simulate.events", len(stressors.failures), hazard="stressor")
    counter_add("simulate.events", len(maintenance), hazard="maintenance")
    counter_add("simulate.events", len(temperatures), hazard="temperature")
    counter_add("simulate.events", len(jobs), hazard="job")
    return SystemDataset(
        system_id=sid,
        group=spec.group,
        num_nodes=spec.num_nodes,
        processors_per_node=spec.processors_per_node,
        period=period,
        failure_table=failures,
        maintenance=maintenance,
        job_columns=jobs,
        temperature_columns=temperatures,
        layout=layout,
    )


def make_archive(config: ArchiveConfig | None = None) -> Archive:
    """Generate a complete archive from a configuration.

    With no argument, generates the full-scale LANL-like archive (ten
    systems plus system 8, nine years); pass
    :func:`~repro.simulate.config.small_config` output for quick runs.

    Every system draws from its own :class:`RngStreams` of
    ``config.seed``, with streams derived by *name*
    (``system-{sid}/usage`` and friends), so one system's values never
    depend on the systems generated before it.

    Args:
        config: archive configuration (defaults to the full catalogue).
    """
    config = config or ArchiveConfig()
    with span(
        "simulate.make_archive",
        seed=config.seed,
        years=config.years,
        scale=config.scale,
    ) as root:
        streams = RngStreams(config.seed)
        with span("simulate.neutrons"):
            neutrons, flux_per_day = generate_neutron_series(
                config.duration_days,
                streams.get("neutrons"),
                sample_interval_days=config.neutron_sample_interval_days,
            )
        specs = config.scaled_systems()
        root.set_attrs(systems=len(specs))
        systems = [
            generate_system(spec, config, RngStreams(config.seed), flux_per_day)
            for spec in specs
        ]
        archive = Archive(systems, neutron_series=neutrons)
        counter_add("simulate.archives", 1)
        if tracing():
            root.set_attrs(total_failures=archive.total_failures())
        return archive


def quick_archive(seed: int = 0, years: float = 3.0, scale: float = 0.05) -> Archive:
    """A small archive for tests, examples and quick exploration."""
    return make_archive(small_config(seed=seed, years=years, scale=scale))
