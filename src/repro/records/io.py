"""On-disk archive format: LANL-style CSV files.

The public LANL release ships per-system CSV tables.  We mirror that
layout so the toolkit can be pointed at a directory tree and load a full
:class:`~repro.records.dataset.Archive`::

    archive-root/
      systems.csv                   one row per system (id, group, nodes, ...)
      neutrons.csv                  site-wide neutron monitor series
      system-<id>/
        failures.csv                node outages
        maintenance.csv             unscheduled maintenance events
        jobs.csv                    usage log (only if available)
        temperatures.csv            sensor readings (only if available)
        layout.csv                  machine layout (only if available)

All files carry a header row; fields are comma-separated; times are
fractional days since the system's observation start.  Writers emit
deterministic, sorted output so archives diff cleanly.

Floats are written with Python's shortest round-trip ``repr`` so that a
save/load cycle reproduces every value *exactly*.  Fixed-precision
formatting used to quantise times, which could reorder records tied on
the rounded key and silently re-attach per-record flags (e.g.
``hardware_related``) to the wrong rows after a round trip.

The two bulk logs load column-wise: :func:`read_jobs` and
:func:`read_temperatures` return :class:`~repro.records.usage.JobColumns`
/ :class:`~repro.records.environment.TemperatureColumns`, checked with
every record invariant and sorted the way the records sort, and
:func:`load_archive` wraps them in the same lazily materialised dataset
the archive cache returns.  The smaller tables load as records.  Every
reader rejects short and long rows, and a record invariant broken by a
row is raised as an :class:`ArchiveIOError` naming the file and row.
"""

from __future__ import annotations

import csv
from itertools import repeat
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import Archive, DatasetError, HardwareGroup, _LazyColumnarSystem
from .environment import (
    EnvironmentRecordError,
    NeutronReading,
    TemperatureColumns,
    TemperatureReading,
)
from .failure import FailureRecord, MaintenanceRecord, RecordError
from .layout import LayoutError, MachineLayout, NodePlacement
from .taxonomy import Subtype, TaxonomyError, parse_category, parse_subtype
from .timeutil import ObservationPeriod, TimeError
from .usage import JobColumns, JobRecord, UsageError
from ..telemetry import span


class ArchiveIOError(ValueError):
    """Raised on malformed archive files."""


_SYSTEMS_HEADER = [
    "system_id",
    "group",
    "num_nodes",
    "processors_per_node",
    "period_start",
    "period_end",
]
_FAILURES_HEADER = [
    "time",
    "node_id",
    "category",
    "subtype",
    "downtime_hours",
]
_MAINTENANCE_HEADER = ["time", "node_id", "hardware_related", "duration_hours"]
_JOBS_HEADER = [
    "job_id",
    "submit_time",
    "dispatch_time",
    "end_time",
    "user_id",
    "num_processors",
    "node_ids",
    "failed_due_to_node",
]
_TEMPERATURES_HEADER = ["time", "node_id", "celsius"]
_LAYOUT_HEADER = ["node_id", "rack_id", "position_in_rack", "room_x", "room_y"]
_NEUTRONS_HEADER = ["time", "counts_per_minute"]


def _fmt(value: float) -> str:
    """Shortest decimal string that parses back to exactly ``value``."""
    return repr(float(value))


def _read_fields(path: Path, header: list[str]) -> list[str]:
    """Every field of a CSV file's data rows, row-major in one flat list.

    Checks the header and each row's field count.  Blank lines are
    skipped and not numbered: data row ``i`` (from 0) is row ``i + 2``
    in error messages, the header being row 1.
    """
    if not path.exists():
        raise ArchiveIOError(f"missing archive file {path}")
    width = len(header)
    flat: list[str] = []
    extend = flat.extend
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        got = next(reader, None)
        if got != header:
            raise ArchiveIOError(f"{path}: expected header {header}, got {got}")
        for row_no, row in enumerate(filter(None, reader), start=2):
            if len(row) != width:
                kind = "short" if len(row) < width else "long"
                raise ArchiveIOError(f"{path}:{row_no}: {kind} row")
            extend(row)
    return flat


def _open_rows(path: Path, header: list[str]) -> list[dict[str, str]]:
    """The data rows of a CSV file as dicts keyed by the header."""
    flat = _read_fields(path, header)
    width = len(header)
    return [
        dict(zip(header, flat[i : i + width]))
        for i in range(0, len(flat), width)
    ]


def _parse_float(path: Path, row_no: int, field: str, value: str) -> float:
    try:
        return float(value)
    except ValueError as exc:
        raise ArchiveIOError(
            f"{path}:{row_no}: field {field!r} is not a number: {value!r}"
        ) from exc


def _parse_int(path: Path, row_no: int, field: str, value: str) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise ArchiveIOError(
            f"{path}:{row_no}: field {field!r} is not an integer: {value!r}"
        ) from exc


def _parse_bool(path: Path, row_no: int, field: str, value: str) -> bool:
    if value in ("0", "1"):
        return value == "1"
    raise ArchiveIOError(
        f"{path}:{row_no}: field {field!r} must be 0 or 1, got {value!r}"
    )


#: What record constructors raise on a violated invariant.
_RECORD_ERRORS = (
    RecordError,
    UsageError,
    EnvironmentRecordError,
    TaxonomyError,
    LayoutError,
    TimeError,
)


def _build(build, path: Path, row_no: int, row: dict[str, str], *args):
    """``build(path, row_no, row, *args)``, raising a record's invariant
    error as an :class:`ArchiveIOError` located at the row."""
    try:
        return build(path, row_no, row, *args)
    except _RECORD_ERRORS as exc:
        raise ArchiveIOError(f"{path}:{row_no}: {exc}") from exc


def _read_records(path: Path, header: list[str], build, *args) -> list:
    """One record per data row of a CSV file, built by ``build``."""
    return [
        _build(build, path, row_no, row, *args)
        for row_no, row in enumerate(_open_rows(path, header), start=2)
    ]


def _read_columns(path: Path, header: list[str]) -> list[list[str]]:
    """The fields of a CSV file's data rows, one list per column."""
    flat = _read_fields(path, header)
    width = len(header)
    return [flat[k::width] for k in range(width)]


def _float_column(values: list[str]) -> np.ndarray:
    return np.fromiter(map(float, values), float, len(values))


def _int_column(values: list[str]) -> np.ndarray:
    return np.fromiter(map(int, values), np.int64, len(values))


_INT64 = range(-(2**63), 2**63)


def _check_int64(path: Path, row_no: int, row: dict[str, str], fields) -> None:
    """Reject a row whose integer ``fields`` (or ``;``-separated lists of
    integers) do not fit the int64 columns."""
    for field in fields:
        if not all(int(tok) in _INT64 for tok in row[field].split(";")):
            raise ArchiveIOError(
                f"{path}:{row_no}: field {field!r} is out of the 64-bit range: "
                f"{row[field]!r}"
            )


def _checked_columns(
    path: Path, header: list[str], system_id: int, parse, build, int_fields
):
    """A file's columns converted by ``parse`` and checked with their
    ``invalid_rows()``.

    ``parse`` raises ValueError or OverflowError on a field it cannot
    convert.  On any rejection, the rows from the first suspect one on
    are rebuilt as records with ``build`` and their ``int_fields``
    range-checked, so the error raised is the one reading the file record
    by record would raise.
    """
    columns = _read_columns(path, header)
    try:
        parsed = parse(columns)
    except (ValueError, OverflowError):
        start = 0
    else:
        bad = parsed.invalid_rows()
        if not bad.any():
            return parsed
        start = int(np.argmax(bad))
    for i in range(start, len(columns[0])):
        row = dict(zip(header, (column[i] for column in columns)))
        _build(build, path, i + 2, row, system_id)
        _check_int64(path, i + 2, row, int_fields)
    raise AssertionError(f"{path}: columns rejected rows that all load as records")


def write_failures(path: Path, failures: Sequence[FailureRecord]) -> None:
    """Write a failure log to ``failures.csv`` format."""
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_FAILURES_HEADER)
        for f in sorted(failures):
            w.writerow(
                [
                    _fmt(f.time),
                    f.node_id,
                    f.category.value,
                    f.subtype.value if f.subtype is not None else "",
                    _fmt(f.downtime_hours),
                ]
            )


def _failure_record(
    path: Path, i: int, row: dict[str, str], system_id: int
) -> FailureRecord:
    subtype: Subtype | None = None
    if row["subtype"]:
        subtype = parse_subtype(row["subtype"])
    return FailureRecord(
        time=_parse_float(path, i, "time", row["time"]),
        system_id=system_id,
        node_id=_parse_int(path, i, "node_id", row["node_id"]),
        category=parse_category(row["category"]),
        subtype=subtype,
        downtime_hours=_parse_float(
            path, i, "downtime_hours", row["downtime_hours"]
        ),
    )


def read_failures(path: Path, system_id: int) -> list[FailureRecord]:
    """Read a ``failures.csv`` file for one system."""
    return _read_records(path, _FAILURES_HEADER, _failure_record, system_id)


def write_maintenance(path: Path, events: Sequence[MaintenanceRecord]) -> None:
    """Write a maintenance log to ``maintenance.csv`` format."""
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_MAINTENANCE_HEADER)
        for m in sorted(events):
            w.writerow(
                [
                    _fmt(m.time),
                    m.node_id,
                    int(m.hardware_related),
                    _fmt(m.duration_hours),
                ]
            )


def _maintenance_record(
    path: Path, i: int, row: dict[str, str], system_id: int
) -> MaintenanceRecord:
    return MaintenanceRecord(
        time=_parse_float(path, i, "time", row["time"]),
        system_id=system_id,
        node_id=_parse_int(path, i, "node_id", row["node_id"]),
        hardware_related=_parse_bool(
            path, i, "hardware_related", row["hardware_related"]
        ),
        duration_hours=_parse_float(
            path, i, "duration_hours", row["duration_hours"]
        ),
    )


def read_maintenance(path: Path, system_id: int) -> list[MaintenanceRecord]:
    """Read a ``maintenance.csv`` file for one system."""
    return _read_records(
        path, _MAINTENANCE_HEADER, _maintenance_record, system_id
    )


def write_jobs(path: Path, jobs: Sequence[JobRecord]) -> None:
    """Write a usage log to ``jobs.csv`` format."""
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_JOBS_HEADER)
        for j in sorted(jobs):
            w.writerow(
                [
                    j.job_id,
                    _fmt(j.submit_time),
                    _fmt(j.dispatch_time),
                    _fmt(j.end_time),
                    j.user_id,
                    j.num_processors,
                    ";".join(str(n) for n in j.node_ids),
                    int(j.failed_due_to_node),
                ]
            )


def _job_record(
    path: Path, i: int, row: dict[str, str], system_id: int
) -> JobRecord:
    raw_nodes = row["node_ids"]
    if not raw_nodes:
        raise ArchiveIOError(f"{path}:{i}: empty node_ids")
    node_ids = tuple(
        _parse_int(path, i, "node_ids", tok) for tok in raw_nodes.split(";")
    )
    return JobRecord(
        submit_time=_parse_float(path, i, "submit_time", row["submit_time"]),
        system_id=system_id,
        job_id=_parse_int(path, i, "job_id", row["job_id"]),
        dispatch_time=_parse_float(
            path, i, "dispatch_time", row["dispatch_time"]
        ),
        end_time=_parse_float(path, i, "end_time", row["end_time"]),
        user_id=_parse_int(path, i, "user_id", row["user_id"]),
        num_processors=_parse_int(
            path, i, "num_processors", row["num_processors"]
        ),
        node_ids=node_ids,
        failed_due_to_node=_parse_bool(
            path, i, "failed_due_to_node", row["failed_due_to_node"]
        ),
    )


def _parse_job_columns(columns: list[list[str]]) -> JobColumns:
    job_id, submit, dispatch, end, user, nprocs, node_lists, failed = columns
    n = len(job_id)
    if not set(failed) <= {"0", "1"}:
        raise ValueError("failed_due_to_node is not 0 or 1")
    # Job i owns count(";") + 1 tokens of the joined lists, so an empty
    # list or entry is an empty token, which int() rejects.
    tokens = ";".join(node_lists).split(";") if n else []
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(
        np.fromiter(map(str.count, node_lists, repeat(";")), np.int64, n) + 1,
        out=offsets[1:],
    )
    return JobColumns(
        submit_times=_float_column(submit),
        dispatch_times=_float_column(dispatch),
        end_times=_float_column(end),
        user_ids=_int_column(user),
        num_processors=_int_column(nprocs),
        failed_due_to_node=np.fromiter(map("1".__eq__, failed), bool, n),
        job_ids=_int_column(job_id),
        node_offsets=offsets,
        node_ids=_int_column(tokens),
    )


def read_jobs(path: Path, system_id: int) -> JobColumns:
    """Read a ``jobs.csv`` file for one system, as columns in record order.

    Every check a :class:`JobRecord` runs is run on the columns, and a
    rejected row raises the record path's error for it.
    """
    jobs = _checked_columns(
        path,
        _JOBS_HEADER,
        system_id,
        _parse_job_columns,
        _job_record,
        ("job_id", "user_id", "num_processors", "node_ids"),
    )
    # JobRecord orders by (submit_time, system_id, job_id); lexsort is
    # stable and keys on its last key first.
    return jobs.take(np.lexsort((jobs.job_ids, jobs.submit_times)))


def write_temperatures(path: Path, readings: Sequence[TemperatureReading]) -> None:
    """Write temperature readings to ``temperatures.csv`` format."""
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_TEMPERATURES_HEADER)
        for r in sorted(readings):
            w.writerow([_fmt(r.time), r.node_id, _fmt(r.celsius)])


def _temperature_record(
    path: Path, i: int, row: dict[str, str], system_id: int
) -> TemperatureReading:
    return TemperatureReading(
        time=_parse_float(path, i, "time", row["time"]),
        system_id=system_id,
        node_id=_parse_int(path, i, "node_id", row["node_id"]),
        celsius=_parse_float(path, i, "celsius", row["celsius"]),
    )


def _parse_temperature_columns(columns: list[list[str]]) -> TemperatureColumns:
    time, node, celsius = columns
    return TemperatureColumns(
        times=_float_column(time),
        node_ids=_int_column(node),
        celsius=_float_column(celsius),
    )


def read_temperatures(path: Path, system_id: int) -> TemperatureColumns:
    """Read a ``temperatures.csv`` file for one system, as columns in
    record order, checked like :func:`read_jobs`."""
    temps = _checked_columns(
        path,
        _TEMPERATURES_HEADER,
        system_id,
        _parse_temperature_columns,
        _temperature_record,
        ("node_id",),
    )
    # TemperatureReading orders by (time, system_id, node_id, celsius).
    return temps.take(np.lexsort((temps.celsius, temps.node_ids, temps.times)))


def write_layout(path: Path, layout: MachineLayout) -> None:
    """Write a machine layout to ``layout.csv`` format."""
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_LAYOUT_HEADER)
        for node_id in layout.node_ids:
            p = layout.placement(node_id)
            w.writerow(
                [p.node_id, p.rack_id, p.position_in_rack, p.room_x, p.room_y]
            )


def _placement(path: Path, i: int, row: dict[str, str]) -> NodePlacement:
    return NodePlacement(
        node_id=_parse_int(path, i, "node_id", row["node_id"]),
        rack_id=_parse_int(path, i, "rack_id", row["rack_id"]),
        position_in_rack=_parse_int(
            path, i, "position_in_rack", row["position_in_rack"]
        ),
        room_x=_parse_int(path, i, "room_x", row["room_x"]),
        room_y=_parse_int(path, i, "room_y", row["room_y"]),
    )


def read_layout(path: Path) -> MachineLayout:
    """Read a ``layout.csv`` file."""
    return MachineLayout(_read_records(path, _LAYOUT_HEADER, _placement))


def write_neutrons(path: Path, readings: Sequence[NeutronReading]) -> None:
    """Write the neutron monitor series to ``neutrons.csv`` format."""
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_NEUTRONS_HEADER)
        for r in sorted(readings):
            w.writerow([_fmt(r.time), _fmt(r.counts_per_minute)])


def _neutron_reading(path: Path, i: int, row: dict[str, str]) -> NeutronReading:
    return NeutronReading(
        time=_parse_float(path, i, "time", row["time"]),
        counts_per_minute=_parse_float(
            path, i, "counts_per_minute", row["counts_per_minute"]
        ),
    )


def read_neutrons(path: Path) -> list[NeutronReading]:
    """Read a ``neutrons.csv`` file."""
    return _read_records(path, _NEUTRONS_HEADER, _neutron_reading)


def save_archive(archive: Archive, root: Path | str) -> None:
    """Persist an :class:`Archive` to a directory tree.

    Creates ``root`` (and parents) if needed; overwrites existing files.
    """
    root = Path(root)
    with span("io.save_archive", path=str(root), systems=len(archive)):
        _save_archive(archive, root)


def _save_archive(archive: Archive, root: Path) -> None:
    root.mkdir(parents=True, exist_ok=True)
    with (root / "systems.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_SYSTEMS_HEADER)
        for ds in archive:
            w.writerow(
                [
                    ds.system_id,
                    ds.group.value,
                    ds.num_nodes,
                    ds.processors_per_node,
                    _fmt(ds.period.start),
                    _fmt(ds.period.end),
                ]
            )
    write_neutrons(root / "neutrons.csv", archive.neutron_series)
    for ds in archive:
        sysdir = root / f"system-{ds.system_id}"
        sysdir.mkdir(exist_ok=True)
        write_failures(sysdir / "failures.csv", ds.failures)
        write_maintenance(sysdir / "maintenance.csv", ds.maintenance)
        if ds.has_usage:
            write_jobs(sysdir / "jobs.csv", ds.jobs)
        if ds.has_temperature:
            write_temperatures(sysdir / "temperatures.csv", ds.temperatures)
        if ds.layout is not None:
            write_layout(sysdir / "layout.csv", ds.layout)


def load_archive(root: Path | str) -> Archive:
    """Load an :class:`Archive` from a directory tree written by
    :func:`save_archive` (or laid out by hand in the same format)."""
    root = Path(root)
    with span("io.load_archive", path=str(root)) as s:
        archive = _load_archive(root)
        s.set_attrs(systems=len(archive))
        return archive


def _system_fields(path: Path, i: int, row: dict[str, str]) -> dict:
    """The scalar :class:`SystemDataset` fields of one ``systems.csv`` row."""
    try:
        group = HardwareGroup(row["group"])
    except ValueError as exc:
        raise ArchiveIOError(
            f"{path}:{i}: unknown group {row['group']!r}"
        ) from exc
    return {
        "system_id": _parse_int(path, i, "system_id", row["system_id"]),
        "group": group,
        "num_nodes": _parse_int(path, i, "num_nodes", row["num_nodes"]),
        "processors_per_node": _parse_int(
            path, i, "processors_per_node", row["processors_per_node"]
        ),
        "period": ObservationPeriod(
            start=_parse_float(path, i, "period_start", row["period_start"]),
            end=_parse_float(path, i, "period_end", row["period_end"]),
        ),
    }


def _load_archive(root: Path) -> Archive:
    systems = []
    rows = _read_records(root / "systems.csv", _SYSTEMS_HEADER, _system_fields)
    for fields in rows:
        system_id = fields["system_id"]
        sysdir = root / f"system-{system_id}"
        failures = read_failures(sysdir / "failures.csv", system_id)
        maintenance = read_maintenance(sysdir / "maintenance.csv", system_id)
        jobs_path = sysdir / "jobs.csv"
        jobs = (
            read_jobs(jobs_path, system_id)
            if jobs_path.exists()
            else JobColumns.from_records(())
        )
        temps_path = sysdir / "temperatures.csv"
        temps = (
            read_temperatures(temps_path, system_id)
            if temps_path.exists()
            else TemperatureColumns.from_records(())
        )
        layout_path = sysdir / "layout.csv"
        layout = read_layout(layout_path) if layout_path.exists() else None
        try:
            systems.append(
                _LazyColumnarSystem.from_columns(
                    **fields,
                    failures=failures,
                    maintenance=maintenance,
                    jobs=jobs,
                    temperatures=temps,
                    layout=layout,
                )
            )
        except DatasetError as exc:
            raise ArchiveIOError(
                f"inconsistent data for system {system_id}: {exc}"
            ) from exc
    neutrons_path = root / "neutrons.csv"
    neutrons = read_neutrons(neutrons_path) if neutrons_path.exists() else []
    return Archive(systems, neutron_series=neutrons)
