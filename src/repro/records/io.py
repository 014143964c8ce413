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

The three bulk logs are parsed by numpy's C reader (``np.loadtxt``,
whose floats come from ``PyOS_string_to_double``, the routine behind
``float()``).  :func:`read_jobs` and :func:`read_temperatures` return
:class:`~repro.records.usage.JobColumns` /
:class:`~repro.records.environment.TemperatureColumns`, checked with
every record invariant and in the order the records sort in, and
:func:`load_archive` wraps them in the same lazily materialised dataset
the archive cache returns; :func:`read_failures` builds its records
straight from the parsed columns.  When the C reader rejects a table, or
a parsed row breaks a record invariant, the per-row record reader
(``csv.reader``, one record per row) reads the table again: it raises
the row's exact error, or loads spellings only Python accepts, such as
``1_000``.  The smaller tables load through the per-row reader only.
Every reader rejects short and long rows, and a record invariant broken
by a row is raised as an :class:`ArchiveIOError` naming the file and
row.
"""

from __future__ import annotations

import csv
import io
import warnings
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
from ..telemetry import counter_add, span


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


#: Bytes that keep a file off the C reader: its number parsers skip the
#: ASCII file, group, record and unit separators as whitespace, which
#: ``int()`` and ``float()`` reject.
_C_UNSAFE = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _c_parse(source, dtype, delimiter: str, **options) -> np.ndarray | None:
    """``np.loadtxt`` of ``source`` as a 1-D array, or ``None`` if the C
    reader rejects it.  ``comments=None``: a ``#`` is data, as in CSV."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            # numpy < 2 parses "1.0" in an integer column, with this warning.
            warnings.simplefilter("error", DeprecationWarning)
            return np.loadtxt(
                source,
                dtype=dtype,
                delimiter=delimiter,
                comments=None,
                ndmin=1,
                **options,
            )
    except (ValueError, DeprecationWarning):
        return None


def _c_table(path: Path, header: list[str], dtype: list) -> np.ndarray | None:
    """The data rows of a CSV file parsed by numpy's C reader, one
    ``dtype`` field per column, or ``None`` where the per-row reader must
    read the file instead.

    The C reader only sees ASCII files whose first line is exactly the
    header (its integer parser misreads some non-ASCII characters as
    digits).  Like ``csv.reader`` it skips empty lines, splits quoted
    fields, and rejects short, long and whitespace-only rows; its numbers
    are what ``int()`` and ``float()`` return, and it rejects what they
    reject -- or more, such as ``1_000``.  So every table it returns, the
    per-row reader reads as the same values.
    """
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise ArchiveIOError(f"missing archive file {path}") from None
    head = ",".join(header).encode()
    if not (
        data.startswith(head)
        and data[len(head) : len(head) + 1] in (b"\n", b"\r", b"")
        and data.isascii()
        and not any(sep in data for sep in _C_UNSAFE)
    ):
        return None
    return _c_parse(path, dtype, ",", quotechar='"', skiprows=1)


def _record_columns(path: Path, header: list[str], build, system_id: int, kind):
    """A bulk table the C reader left, read by the per-row record reader:
    its exact error, or ``kind`` columns of its records, in file order."""
    counter_add("records.load_fallback", 1, table=path.stem)
    return kind.from_records(_read_records(path, header, build, system_id))


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


def _subtype(token: str) -> Subtype | None:
    return parse_subtype(token) if token else None


def _failure_record(
    path: Path, i: int, row: dict[str, str], system_id: int
) -> FailureRecord:
    subtype = _subtype(row["subtype"])
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


_FAILURES_DTYPE = list(
    zip(_FAILURES_HEADER, [float, np.int64, object, object, float])
)


def _parsed_each(parse, tokens: np.ndarray) -> list:
    """``parse`` of every token, called once per distinct token."""
    tokens = tokens.tolist()
    parsed = {token: parse(token) for token in dict.fromkeys(tokens)}
    return list(map(parsed.__getitem__, tokens))


def read_failures(path: Path, system_id: int) -> list[FailureRecord]:
    """Read a ``failures.csv`` file for one system, in file order."""
    table = _c_table(path, _FAILURES_HEADER, _FAILURES_DTYPE)
    if table is not None:
        try:
            return list(
                map(
                    FailureRecord,
                    table["time"].tolist(),
                    repeat(system_id),
                    table["node_id"].tolist(),
                    _parsed_each(parse_category, table["category"]),
                    _parsed_each(_subtype, table["subtype"]),
                    table["downtime_hours"].tolist(),
                )
            )
        except _RECORD_ERRORS:
            pass
    counter_add("records.load_fallback", 1, table=path.stem)
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


def _write_rows(path: Path, header: list[str], row: str, *columns) -> None:
    """Write a CSV file of ``row.format`` over ``columns``, as
    ``csv.writer`` writes fields that need no quoting."""
    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(map((row + "\r\n").format, *columns))


def write_jobs(path: Path, jobs: Sequence[JobRecord]) -> None:
    """Write a usage log to ``jobs.csv`` format."""
    _write_job_columns(path, JobColumns.from_records(sorted(jobs)))


def _write_job_columns(path: Path, jobs: JobColumns) -> None:
    """Write a job log, in record order, to ``jobs.csv`` format."""
    offsets = jobs.node_offsets.tolist()
    nodes = list(map(str, jobs.node_ids.tolist()))
    _write_rows(
        path,
        _JOBS_HEADER,
        "{},{!r},{!r},{!r},{},{},{},{}",
        jobs.job_ids.tolist(),
        jobs.submit_times.tolist(),
        jobs.dispatch_times.tolist(),
        jobs.end_times.tolist(),
        jobs.user_ids.tolist(),
        jobs.num_processors.tolist(),
        [";".join(nodes[a:b]) for a, b in zip(offsets, offsets[1:])],
        jobs.failed_due_to_node.astype(np.int64).tolist(),
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
    job = JobRecord(
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
    _check_int64(path, i, row, ("job_id", "user_id", "num_processors", "node_ids"))
    return job


_JOBS_DTYPE = list(
    zip(
        _JOBS_HEADER,
        [np.int64, float, float, float, np.int64, np.int64, object, object],
    )
)


def _job_columns(table: np.ndarray) -> JobColumns | None:
    """The columns of C-parsed jobs, or ``None`` if a flag or node list
    is not one the per-row reader accepts."""
    flags = table["failed_due_to_node"]
    failed = flags == "1"
    if not (failed | (flags == "0")).all():
        return None
    # Job i owns count(";") + 1 tokens of the joined lists, so an empty
    # list or entry is an empty field, which the C reader rejects.
    node_lists = table["node_ids"].tolist()
    n = len(node_lists)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(
        np.fromiter(map(str.count, node_lists, repeat(";")), np.int64, n) + 1,
        out=offsets[1:],
    )
    nodes = _c_parse(io.StringIO(";".join(node_lists)), np.int64, ";")
    # One line of fields, or the count is off: a token's newline would
    # start a second row.
    if nodes is None or nodes.shape != (offsets[-1],):
        return None
    return JobColumns(
        submit_times=table["submit_time"].copy(),
        dispatch_times=table["dispatch_time"].copy(),
        end_times=table["end_time"].copy(),
        user_ids=table["user_id"].copy(),
        num_processors=table["num_processors"].copy(),
        failed_due_to_node=failed,
        job_ids=table["job_id"].copy(),
        node_offsets=offsets,
        node_ids=nodes,
    )


def read_jobs(path: Path, system_id: int) -> JobColumns:
    """Read a ``jobs.csv`` file for one system, as columns in record order.

    Every check a :class:`JobRecord` runs is run on the columns, and a
    rejected row raises the record path's error for it.
    """
    table = _c_table(path, _JOBS_HEADER, _JOBS_DTYPE)
    jobs = None if table is None else _job_columns(table)
    if jobs is None or jobs.invalid_rows().any():
        jobs = _record_columns(
            path, _JOBS_HEADER, _job_record, system_id, JobColumns
        )
    return jobs.in_record_order()


def write_temperatures(path: Path, readings: Sequence[TemperatureReading]) -> None:
    """Write temperature readings to ``temperatures.csv`` format."""
    _write_temperature_columns(
        path, TemperatureColumns.from_records(sorted(readings))
    )


def _write_temperature_columns(path: Path, temps: TemperatureColumns) -> None:
    """Write a temperature log, in record order, to ``temperatures.csv``."""
    _write_rows(
        path,
        _TEMPERATURES_HEADER,
        "{!r},{},{!r}",
        temps.times.tolist(),
        temps.node_ids.tolist(),
        temps.celsius.tolist(),
    )


def _temperature_record(
    path: Path, i: int, row: dict[str, str], system_id: int
) -> TemperatureReading:
    reading = TemperatureReading(
        time=_parse_float(path, i, "time", row["time"]),
        system_id=system_id,
        node_id=_parse_int(path, i, "node_id", row["node_id"]),
        celsius=_parse_float(path, i, "celsius", row["celsius"]),
    )
    _check_int64(path, i, row, ("node_id",))
    return reading


_TEMPERATURES_DTYPE = list(zip(_TEMPERATURES_HEADER, [float, np.int64, float]))


def read_temperatures(path: Path, system_id: int) -> TemperatureColumns:
    """Read a ``temperatures.csv`` file for one system, as columns in
    record order, checked like :func:`read_jobs`."""
    table = _c_table(path, _TEMPERATURES_HEADER, _TEMPERATURES_DTYPE)
    temps = None
    if table is not None:
        temps = TemperatureColumns(
            times=table["time"].copy(),
            node_ids=table["node_id"].copy(),
            celsius=table["celsius"].copy(),
        )
    if temps is None or temps.invalid_rows().any():
        temps = _record_columns(
            path,
            _TEMPERATURES_HEADER,
            _temperature_record,
            system_id,
            TemperatureColumns,
        )
    return temps.in_record_order()


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
            _write_job_columns(sysdir / "jobs.csv", ds.log_columns("jobs"))
        if ds.has_temperature:
            _write_temperature_columns(
                sysdir / "temperatures.csv", ds.log_columns("temperatures")
            )
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
