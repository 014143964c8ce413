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

Every table is read one way.  Its bytes are read once and tokenised
once: by numpy's C reader (``np.loadtxt``, whose floats come from
``PyOS_string_to_double``, the routine behind ``float()``) when they
pass its gate, else by ``csv.reader`` over the same decoded text, which
also reads spellings only Python accepts, such as ``1_000``
(``records.load_fallback`` counts those tables).  The tokens become
typed columns with ``int()``/``float()`` semantics and int64 range
checks.  One check per table finds its first bad row: ``invalid_rows()``
for every log (failures, maintenance, jobs, temperatures, neutrons),
which is then returned as columns in record order; only ``layout.csv``
and ``systems.csv`` are read as records.

A rejected table raises an :class:`ArchiveIOError` naming the file:
a last row without a line end (a cut file), bytes that are not UTF-8, a
wrong header, else its first short or long
row, else its first bad row.  That row's error is its first field that
does not parse, in the order the record's constructor takes them; else
the invariant its record breaks, worded by building the record, whose
error is the cause; else an integer beyond int64.
"""

from __future__ import annotations

import csv
import io
import warnings
from functools import partial
from itertools import chain, repeat
from pathlib import Path
from typing import Callable, NoReturn

import numpy as np

from .dataset import Archive, DatasetError, FailureTable, HardwareGroup, SystemDataset
from .environment import (
    EnvironmentRecordError,
    NeutronReading,
    NeutronSeries,
    TemperatureColumns,
    TemperatureReading,
)
from .failure import FailureRecord, MaintenanceRecord, MaintenanceTable, RecordError
from .layout import LayoutError, MachineLayout, NodePlacement
from .taxonomy import TaxonomyError, parse_category, parse_subtype
from .timeutil import ObservationPeriod, TimeError
from .usage import JobColumns, JobRecord, UsageError, checked_in_record_order
from ..telemetry import counter_add, span


class ArchiveIOError(ValueError):
    """Raised on malformed archive files."""


# ``parse(token, column)``: one field's value, else an ArchiveIOError
# worded for the row (with the parser's own error as cause, if any) or a
# record's error.

_INT64 = range(-(2**63), 2**63)


def _float(token: str, column: str) -> float:
    try:
        return float(token)
    except ValueError as exc:
        raise ArchiveIOError(f"field {column!r} is not a number: {token!r}") from exc


def _int(token: str, column: str) -> int:
    try:
        return int(token)
    except ValueError as exc:
        raise ArchiveIOError(f"field {column!r} is not an integer: {token!r}") from exc


def _flag(token: str, column: str) -> bool:
    if token in ("0", "1"):
        return token == "1"
    raise ArchiveIOError(f"field {column!r} must be 0 or 1, got {token!r}")


def _node_list(token: str, column: str) -> tuple[int, ...]:
    if not token:
        raise ArchiveIOError(f"empty {column}")
    return tuple(_int(node, column) for node in token.split(";"))


def _group(token: str, column: str) -> HardwareGroup:
    try:
        return HardwareGroup(token)
    except ValueError as exc:
        raise ArchiveIOError(f"unknown group {token!r}") from exc


def _in_int64(value: int | tuple[int, ...]) -> bool:
    if isinstance(value, tuple):
        return all(map(_INT64.__contains__, value))
    return value in _INT64


#: What record constructors raise on a violated invariant.
_RECORD_ERRORS = (
    RecordError, UsageError, EnvironmentRecordError, TaxonomyError, LayoutError, TimeError
)

#: The C reader's column type per parser; other columns stay strings.
_C_DTYPES = {_float: float, _int: np.int64}


class _Spec:
    """An archive table's layout: its header, and the parser of each
    column, given in the order the table's record constructor takes the
    fields, which is the order a bad row's fields are checked in; the
    header is that order unless given."""

    def __init__(self, header: list[str] | None = None, **fields: Callable) -> None:
        self.header = header or list(fields)
        self.fields = fields
        self.dtype = [(name, _C_DTYPES.get(fields[name], object)) for name in self.header]
        #: Integer columns, range-checked in header order.
        self.int64 = [name for name in self.header if fields[name] in (_int, _node_list)]


_SYSTEMS = _Spec(
    ["system_id", "group", "num_nodes", "processors_per_node", "period_start",
     "period_end"],
    group=_group, system_id=_int, num_nodes=_int, processors_per_node=_int,
    period_start=_float, period_end=_float,
)
_FAILURES = _Spec(
    ["time", "node_id", "category", "subtype", "downtime_hours"],
    subtype=lambda token, _: parse_subtype(token) if token else None,
    time=_float,
    node_id=_int,
    category=lambda token, _: parse_category(token),
    downtime_hours=_float,
)
_MAINTENANCE = _Spec(
    time=_float, node_id=_int, hardware_related=_flag, duration_hours=_float
)
_JOBS = _Spec(
    ["job_id", "submit_time", "dispatch_time", "end_time", "user_id",
     "num_processors", "node_ids", "failed_due_to_node"],
    node_ids=_node_list, submit_time=_float, job_id=_int, dispatch_time=_float,
    end_time=_float, user_id=_int, num_processors=_int, failed_due_to_node=_flag,
)
_TEMPERATURES = _Spec(time=_float, node_id=_int, celsius=_float)
_LAYOUT = _Spec(
    node_id=_int, rack_id=_int, position_in_rack=_int, room_x=_int, room_y=_int
)
_NEUTRONS = _Spec(time=_float, counts_per_minute=_float)


# --- tokenisers -----------------------------------------------------------

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


def _c_tokens(data: bytes, spec: _Spec) -> np.ndarray | None:
    """A table's bytes parsed by numpy's C reader, one ``spec.dtype``
    field per column, or ``None`` where ``csv.reader`` must tokenise them.

    The C reader only sees ASCII files whose first line is exactly the
    header (its integer parser misreads some non-ASCII characters as
    digits).  Like ``csv.reader`` it skips empty lines, splits quoted
    fields, and rejects short, long and whitespace-only rows; its numbers
    are what ``int()`` and ``float()`` return, and it rejects what they
    reject -- or more, such as ``1_000``.  So every table it returns,
    ``csv.reader`` tokenises to the same values.  It reads the bytes
    through the same text layer (universal newlines) as an opened file.
    """
    head = ",".join(spec.header).encode()
    if not (
        data.startswith(head)
        and data[len(head) : len(head) + 1] in (b"\n", b"\r", b"")
        and data.isascii()
        and not any(sep in data for sep in _C_UNSAFE)
    ):
        return None
    text = io.TextIOWrapper(io.BytesIO(data), encoding="ascii")
    return _c_parse(text, spec.dtype, ",", quotechar='"', skiprows=1)


def _csv_rows(path: Path, data: bytes, header: list[str]) -> list[list[str]]:
    """A table's data rows by ``csv.reader``, over ``data`` decoded as
    UTF-8 with universal newlines; the header and each row's field count
    checked.

    Blank lines are skipped and not numbered: data row ``i`` (from 0) is
    row ``i + 2`` in error messages, the header being row 1.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ArchiveIOError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    reader = csv.reader(io.StringIO(text, newline=""))
    got = next(reader, None)
    if got != header:
        raise ArchiveIOError(f"{path}: expected header {header}, got {got}")
    rows = []
    for row_no, row in enumerate(filter(None, reader), start=2):
        if len(row) != len(header):
            kind = "short" if len(row) < len(header) else "long"
            raise ArchiveIOError(f"{path}:{row_no}: {kind} row")
        rows.append(row)
    return rows


# --- one table: tokens, typed columns, check ------------------------------


class _Rows:
    """One archive table's data rows, read and tokenised once, and turned
    into typed columns.

    A column that cannot take a row's token (it does not parse, or it is
    beyond int64) lowers :attr:`cut` to that row and holds a filler from
    there on, so every row before :attr:`cut` is parsed in every column.
    """

    def __init__(self, path: Path, spec: _Spec) -> None:
        self.path, self.spec = path, spec
        try:
            self._data = path.read_bytes()
        except FileNotFoundError:
            raise ArchiveIOError(f"missing archive file {path}") from None
        if self._data and not self._data.endswith((b"\n", b"\r")):
            # Every row ends with a line break (the writer's is CRLF): a
            # last row without one was cut short.
            raise ArchiveIOError(f"{path}: truncated (the last row has no line end)")
        self._counted = False
        table = _c_tokens(self._data, spec)
        #: ``csv.reader`` rows; made from the bytes only if they are needed.
        self._csv = None
        if table is None:
            self._fell_back()
            self._csv = _csv_rows(path, self._data, spec.header)
            columns = list(map(list, zip(*self._csv))) or [[] for _ in spec.header]
            self.columns = dict(zip(spec.header, columns))
        else:
            self.columns = {name: table[name] for name in spec.header}
        self.c_parsed = table is not None
        self.size = len(table if table is not None else self._csv)
        self.cut = self.size

    def _fell_back(self) -> None:
        """Count this table, once, as one the C reader did not parse."""
        if not self._counted:
            self._counted = True
            counter_add("records.load_fallback", 1, table=self.path.stem)

    def _tokens(self, name: str) -> list:
        tokens = self.columns[name]
        return tokens.tolist() if isinstance(tokens, np.ndarray) else tokens

    def _parsed(self, name: str, fill) -> list:
        """The column's tokens parsed by its field's parser and range
        checked, up to the first it rejects; ``fill`` from there on."""
        parse, checked = self.spec.fields[name], name in self.spec.int64
        values = []
        try:
            for token in self._tokens(name):
                value = parse(token, name)
                if checked and not _in_int64(value):
                    break
                values.append(value)
        except ValueError:  # every parser's and record's error is one
            pass
        self.cut = min(self.cut, len(values))
        return values + [fill] * (self.size - len(values))

    def numbers(self, name: str) -> np.ndarray:
        """A float or integer column."""
        if self.c_parsed:
            return self.columns[name].copy()
        dtype = _C_DTYPES[self.spec.fields[name]]
        return np.array(self._parsed(name, 0), dtype=dtype)

    def objects(self, name: str) -> np.ndarray:
        """A column of parsed values of any type, such as enum members."""
        return np.array(self._parsed(name, None), dtype=object)

    def flags(self, name: str) -> np.ndarray:
        """A ``0``/``1`` column, as booleans."""
        tokens = np.asarray(self.columns[name], dtype=object)
        true = tokens == "1"
        valid = true | (tokens == "0")
        if not valid.all():
            self.cut = min(self.cut, int(valid.argmin()))
        return true

    def codes(self, name: str, code: Callable) -> np.ndarray:
        """``code`` of each parsed token, parsing each distinct one once."""
        tokens, parse = self._tokens(name), self.spec.fields[name]
        memo = {}
        for token in dict.fromkeys(tokens):
            try:
                memo[token] = code(parse(token, name))
            except ValueError:
                self.cut = min(self.cut, tokens.index(token))
        return np.fromiter(map(memo.get, tokens, repeat(0)), np.int64, len(tokens))

    def node_lists(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """A column of ``;``-separated integer lists, in CSR layout: the
        offsets and the concatenated values."""
        lists = self._tokens(name)
        n = len(lists)
        # Row i owns count(";") + 1 tokens of the joined lists, so an empty
        # list or entry is an empty field, which the C reader rejects.
        counts = np.fromiter(map(str.count, lists, repeat(";")), np.int64, n) + 1
        values = None
        if self.c_parsed:
            values = _c_parse(io.StringIO(";".join(lists)), np.int64, ";")
        # One line of fields, or the count is off: a token's newline would
        # start a second row.
        if values is None or values.shape != (counts.sum(),):
            self._fell_back()
            parsed = self._parsed(name, ())
            counts = np.fromiter(map(len, parsed), np.int64, n)
            values = np.fromiter(chain.from_iterable(parsed), np.int64, counts.sum())
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return offsets, values

    def checked(self, log, make: Callable):
        """``log``, built from these columns, checked and in record order;
        else the error of its first bad row (see :meth:`fail`)."""
        if self.cut == self.size:
            try:
                return checked_in_record_order(log)
            except _RECORD_ERRORS:
                pass
        bad = np.flatnonzero(log.invalid_rows()[: self.cut])
        self.fail(int(bad[0]) if bad.size else self.cut, make)

    def records(self, make: Callable, **columns: np.ndarray) -> list:
        """``make(**row)`` of each row of the typed ``columns``; else the
        error of the first bad row (see :meth:`fail`)."""
        names = list(columns)
        rows = zip(*(columns[name][: self.cut].tolist() for name in names))
        out: list = []
        try:
            out.extend(make(**dict(zip(names, row))) for row in rows)
        except _RECORD_ERRORS:
            pass
        if len(out) < self.size:
            self.fail(len(out), make)
        return out

    def fail(self, index: int, make: Callable) -> NoReturn:
        """Raise the error of data row ``index``, worded from its tokens:
        its first field that does not parse, else the error of
        ``make(**fields)``, else its first integer beyond int64."""
        if self._csv is None:
            self._csv = _csv_rows(self.path, self._data, self.spec.header)
        row = dict(zip(self.spec.header, self._csv[index]))
        at = f"{self.path}:{index + 2}"
        try:
            values = {
                name: parse(row[name], name) for name, parse in self.spec.fields.items()
            }
            make(**values)
        except ArchiveIOError as exc:
            raise ArchiveIOError(f"{at}: {exc}") from exc.__cause__
        except _RECORD_ERRORS as exc:
            raise ArchiveIOError(f"{at}: {exc}") from exc
        for name in self.spec.int64:
            if not _in_int64(values[name]):
                raise ArchiveIOError(
                    f"{at}: field {name!r} is out of the 64-bit range: {row[name]!r}"
                )
        raise AssertionError(f"{at}: the columns reject a row its record accepts")


# --- tables ---------------------------------------------------------------


def _write_rows(path: Path, header: list[str], row: str, *columns) -> None:
    """Write a CSV file of ``row.format`` over ``columns``, as
    ``csv.writer`` writes fields that need no quoting."""
    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(map((row + "\r\n").format, *columns))


#: The ``category`` / ``subtype`` token of each failure table code.
_CATEGORY_TOKENS = [c.value for c in FailureTable.CATEGORIES]
_SUBTYPE_TOKENS = [s.value if s is not None else "" for s in FailureTable.SUBTYPES]


def write_failures(path: Path, failures: FailureTable) -> None:
    """Write a failure log, in record order, to ``failures.csv`` format."""
    _write_rows(
        path,
        _FAILURES.header,
        "{!r},{},{},{},{!r}",
        failures.times.tolist(),
        failures.node_ids.tolist(),
        map(_CATEGORY_TOKENS.__getitem__, failures.category_codes.tolist()),
        map(_SUBTYPE_TOKENS.__getitem__, failures.subtype_codes.tolist()),
        failures.downtime_hours.tolist(),
    )


def read_failures(path: Path, system_id: int) -> FailureTable:
    """Read a ``failures.csv`` file for one system, as a table in record
    order, checked like :func:`read_jobs`."""
    rows = _Rows(path, _FAILURES)
    failures = FailureTable(
        times=rows.numbers("time"),
        node_ids=rows.numbers("node_id"),
        category_codes=rows.codes("category", FailureTable.category_code),
        subtype_codes=rows.codes("subtype", FailureTable.subtype_code),
        downtime_hours=rows.numbers("downtime_hours"),
    )
    return rows.checked(failures, partial(FailureRecord, system_id=system_id))


def write_maintenance(path: Path, events: MaintenanceTable) -> None:
    """Write a maintenance log, in record order, to ``maintenance.csv``."""
    _write_rows(
        path,
        _MAINTENANCE.header,
        "{!r},{},{},{!r}",
        events.times.tolist(),
        events.node_ids.tolist(),
        events.hardware_related.astype(np.int64).tolist(),
        events.duration_hours.tolist(),
    )


def read_maintenance(path: Path, system_id: int) -> MaintenanceTable:
    """Read a ``maintenance.csv`` file for one system, as a table in
    record order, checked like :func:`read_jobs`."""
    rows = _Rows(path, _MAINTENANCE)
    events = MaintenanceTable(
        times=rows.numbers("time"),
        node_ids=rows.numbers("node_id"),
        hardware_related=rows.flags("hardware_related"),
        duration_hours=rows.numbers("duration_hours"),
    )
    return rows.checked(events, partial(MaintenanceRecord, system_id=system_id))


def write_jobs(path: Path, jobs: JobColumns) -> None:
    """Write a job log, in record order, to ``jobs.csv`` format."""
    offsets = jobs.node_offsets.tolist()
    nodes = list(map(str, jobs.node_ids.tolist()))
    _write_rows(
        path,
        _JOBS.header,
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


def read_jobs(path: Path, system_id: int) -> JobColumns:
    """Read a ``jobs.csv`` file for one system, as columns in record order.

    Every check a :class:`JobRecord` runs is run on the columns, and a
    rejected row raises the error its record would.
    """
    rows = _Rows(path, _JOBS)
    offsets, nodes = rows.node_lists("node_ids")
    jobs = JobColumns(
        submit_times=rows.numbers("submit_time"),
        dispatch_times=rows.numbers("dispatch_time"),
        end_times=rows.numbers("end_time"),
        user_ids=rows.numbers("user_id"),
        num_processors=rows.numbers("num_processors"),
        failed_due_to_node=rows.flags("failed_due_to_node"),
        job_ids=rows.numbers("job_id"),
        node_offsets=offsets,
        node_ids=nodes,
    )
    return rows.checked(jobs, partial(JobRecord, system_id=system_id))


def write_temperatures(path: Path, temps: TemperatureColumns) -> None:
    """Write a temperature log, in record order, to ``temperatures.csv``."""
    _write_rows(
        path,
        _TEMPERATURES.header,
        "{!r},{},{!r}",
        temps.times.tolist(),
        temps.node_ids.tolist(),
        temps.celsius.tolist(),
    )


def read_temperatures(path: Path, system_id: int) -> TemperatureColumns:
    """Read a ``temperatures.csv`` file for one system, as columns in
    record order, checked like :func:`read_jobs`."""
    rows = _Rows(path, _TEMPERATURES)
    temps = TemperatureColumns(
        times=rows.numbers("time"),
        node_ids=rows.numbers("node_id"),
        celsius=rows.numbers("celsius"),
    )
    return rows.checked(temps, partial(TemperatureReading, system_id=system_id))


def write_layout(path: Path, layout: MachineLayout) -> None:
    """Write a machine layout to ``layout.csv`` format."""
    placements = list(map(layout.placement, layout.node_ids))
    _write_rows(
        path,
        _LAYOUT.header,
        "{},{},{},{},{}",
        *([getattr(p, name) for p in placements] for name in _LAYOUT.header),
    )


def read_layout(path: Path) -> MachineLayout:
    """Read a ``layout.csv`` file."""
    rows = _Rows(path, _LAYOUT)
    placements = rows.records(
        NodePlacement, **{name: rows.numbers(name) for name in _LAYOUT.header}
    )
    try:
        return MachineLayout(placements)
    except LayoutError as exc:
        raise ArchiveIOError(f"{path}: {exc}") from exc


def write_neutrons(path: Path, series: NeutronSeries) -> None:
    """Write the neutron series, in record order, to ``neutrons.csv``."""
    _write_rows(
        path,
        _NEUTRONS.header,
        "{!r},{!r}",
        series.times.tolist(),
        series.counts_per_minute.tolist(),
    )


def read_neutrons(path: Path) -> NeutronSeries:
    """Read a ``neutrons.csv`` file, as a series in record order, checked
    like :func:`read_jobs`."""
    rows = _Rows(path, _NEUTRONS)
    series = NeutronSeries(
        times=rows.numbers("time"),
        counts_per_minute=rows.numbers("counts_per_minute"),
    )
    return rows.checked(series, NeutronReading)


def _system(
    group, system_id, num_nodes, processors_per_node, period_start, period_end
) -> dict:
    """The scalar :class:`SystemDataset` fields of one ``systems.csv`` row."""
    return {
        "system_id": system_id,
        "group": group,
        "num_nodes": num_nodes,
        "processors_per_node": processors_per_node,
        "period": ObservationPeriod(start=period_start, end=period_end),
    }


def read_systems(path: Path) -> list[dict]:
    """Read a ``systems.csv`` file: each row's scalar
    :class:`SystemDataset` fields, in file order.  The table must hold a
    row, and no row may repeat an earlier row's system id."""
    rows = _Rows(path, _SYSTEMS)
    numbers = {name: rows.numbers(name) for name in _SYSTEMS.header if name != "group"}
    systems = rows.records(_system, group=rows.objects("group"), **numbers)
    if not systems:
        raise ArchiveIOError(f"{path}: an archive must contain at least one system")
    ids = [fields["system_id"] for fields in systems]
    for i, system_id in enumerate(ids):
        if system_id in ids[:i]:
            raise ArchiveIOError(f"{path}:{i + 2}: duplicate system id {system_id}")
    return systems


def save_archive(archive: Archive, root: Path | str) -> None:
    """Persist an :class:`Archive` to a directory tree.

    Creates ``root`` (and parents) if needed; overwrites existing files.
    """
    root = Path(root)
    with span("io.save_archive", path=str(root), systems=len(archive)):
        _save_archive(archive, root)


def _save_archive(archive: Archive, root: Path) -> None:
    root.mkdir(parents=True, exist_ok=True)
    systems = list(archive)
    _write_rows(
        root / "systems.csv",
        _SYSTEMS.header,
        "{},{},{},{},{!r},{!r}",
        [ds.system_id for ds in systems],
        [ds.group.value for ds in systems],
        [ds.num_nodes for ds in systems],
        [ds.processors_per_node for ds in systems],
        [float(ds.period.start) for ds in systems],
        [float(ds.period.end) for ds in systems],
    )
    write_neutrons(root / "neutrons.csv", archive.neutron_series)
    for ds in archive:
        sysdir = root / f"system-{ds.system_id}"
        sysdir.mkdir(exist_ok=True)
        write_failures(sysdir / "failures.csv", ds.failure_table)
        write_maintenance(sysdir / "maintenance.csv", ds.maintenance)
        if ds.has_usage:
            write_jobs(sysdir / "jobs.csv", ds.job_columns)
        if ds.has_temperature:
            write_temperatures(sysdir / "temperatures.csv", ds.temperature_columns)
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


def _load_archive(root: Path) -> Archive:
    systems = []
    for fields in read_systems(root / "systems.csv"):
        system_id = fields["system_id"]
        sysdir = root / f"system-{system_id}"
        tables = {
            "failure_table": read_failures(sysdir / "failures.csv", system_id),
            "maintenance": read_maintenance(sysdir / "maintenance.csv", system_id),
        }
        # The optional tables: a dataset without one holds an empty log,
        # or no layout.
        for name, read, file in (
            ("job_columns", partial(read_jobs, system_id=system_id), "jobs.csv"),
            (
                "temperature_columns",
                partial(read_temperatures, system_id=system_id),
                "temperatures.csv",
            ),
            ("layout", read_layout, "layout.csv"),
        ):
            if (sysdir / file).exists():
                tables[name] = read(sysdir / file)
        try:
            systems.append(SystemDataset(**fields, **tables))
        except DatasetError as exc:
            raise ArchiveIOError(
                f"inconsistent data for system {system_id}: {exc}"
            ) from exc
    neutrons_path = root / "neutrons.csv"
    neutrons = read_neutrons(neutrons_path) if neutrons_path.exists() else None
    return Archive(systems, neutron_series=neutrons)
