"""Every log of a dataset or archive as record objects, for tests.

The package holds each log as numpy columns and builds records only to
word a bad row's error.  Tests that check a log row by row against a
record-built oracle read it through these functions: each builds the
records of a log's rows, in row order, every field as the columns hold
it.
"""

from __future__ import annotations

from itertools import repeat

from repro.records.dataset import Archive, FailureTable, SystemDataset
from repro.records.environment import (
    NeutronReading,
    NeutronSeries,
    TemperatureColumns,
    TemperatureReading,
)
from repro.records.failure import FailureRecord, MaintenanceRecord, MaintenanceTable
from repro.records.usage import JobColumns, JobRecord


def failure_table_records(
    table: FailureTable, system_id: int
) -> tuple[FailureRecord, ...]:
    """The rows of ``table`` as :class:`FailureRecord` objects of ``system_id``."""
    return tuple(
        map(
            FailureRecord,
            table.times.tolist(),
            repeat(system_id),
            table.node_ids.tolist(),
            map(FailureTable.CATEGORIES.__getitem__, table.category_codes.tolist()),
            map(FailureTable.SUBTYPES.__getitem__, table.subtype_codes.tolist()),
            table.downtime_hours.tolist(),
        )
    )


def maintenance_table_records(
    table: MaintenanceTable, system_id: int
) -> tuple[MaintenanceRecord, ...]:
    """The rows of ``table`` as :class:`MaintenanceRecord` objects of
    ``system_id``."""
    return tuple(
        map(
            MaintenanceRecord,
            table.times.tolist(),
            repeat(system_id),
            table.node_ids.tolist(),
            table.hardware_related.tolist(),
            table.duration_hours.tolist(),
        )
    )


def job_table_records(jobs: JobColumns, system_id: int) -> tuple[JobRecord, ...]:
    """The rows of ``jobs`` as :class:`JobRecord` objects of ``system_id``."""
    offsets = jobs.node_offsets.tolist()
    nodes = jobs.node_ids.tolist()
    return tuple(
        map(
            JobRecord,
            jobs.submit_times.tolist(),
            repeat(system_id),
            jobs.job_ids.tolist(),
            jobs.dispatch_times.tolist(),
            jobs.end_times.tolist(),
            jobs.user_ids.tolist(),
            jobs.num_processors.tolist(),
            (tuple(nodes[a:b]) for a, b in zip(offsets, offsets[1:])),
            jobs.failed_due_to_node.tolist(),
        )
    )


def temperature_table_records(
    temps: TemperatureColumns, system_id: int
) -> tuple[TemperatureReading, ...]:
    """The rows of ``temps`` as :class:`TemperatureReading` objects of
    ``system_id``."""
    return tuple(
        map(
            TemperatureReading,
            temps.times.tolist(),
            repeat(system_id),
            temps.node_ids.tolist(),
            temps.celsius.tolist(),
        )
    )


def neutron_series_records(series: NeutronSeries) -> tuple[NeutronReading, ...]:
    """The rows of ``series`` as :class:`NeutronReading` objects."""
    return tuple(
        map(NeutronReading, series.times.tolist(), series.counts_per_minute.tolist())
    )


def failure_records(ds: SystemDataset) -> tuple[FailureRecord, ...]:
    """``ds``'s failure log as records."""
    return failure_table_records(ds.failure_table, ds.system_id)


def maintenance_records(ds: SystemDataset) -> tuple[MaintenanceRecord, ...]:
    """``ds``'s maintenance log as records."""
    return maintenance_table_records(ds.maintenance, ds.system_id)


def job_records(ds: SystemDataset) -> tuple[JobRecord, ...]:
    """``ds``'s job log as records."""
    return job_table_records(ds.job_columns, ds.system_id)


def temperature_records(ds: SystemDataset) -> tuple[TemperatureReading, ...]:
    """``ds``'s temperature log as records."""
    return temperature_table_records(ds.temperature_columns, ds.system_id)


def neutron_records(archive: Archive) -> tuple[NeutronReading, ...]:
    """``archive``'s neutron series as records."""
    return neutron_series_records(archive.neutron_series)
