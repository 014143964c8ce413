"""Dataset containers: one system's records, and a multi-system archive.

:class:`SystemDataset` bundles everything recorded about one LANL-style
system -- failures, maintenance events, job logs, temperature readings,
machine layout -- with its observation period and hardware group.  It
also exposes a columnar numpy view of the failure log
(:class:`FailureTable`) that the analysis layer uses for vectorised
window computations.

:class:`Archive` bundles all systems plus site-wide series (the neutron
monitor feed) and mirrors the shape of the public LANL release: ten
systems in two hardware groups.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import repeat
from typing import Iterable, Iterator, Sequence

import numpy as np

from .environment import (
    NeutronReading,
    TemperatureColumns,
    TemperatureReading,
    neutron_columns,
)
from .failure import FailureRecord, MaintenanceRecord
from .layout import MachineLayout
from .taxonomy import (
    Category,
    Subtype,
    all_categories,
    all_subtypes,
    category_of,
)
from .timeutil import ObservationPeriod
from .usage import JobColumns, JobRecord


class DatasetError(ValueError):
    """Raised on inconsistent dataset construction or queries."""


class HardwareGroup(enum.Enum):
    """The two hardware families the paper splits LANL systems into.

    GROUP1: 4-way SMP nodes (systems 3, 4, 5, 6, 18, 19, 20), 2848 nodes
    and 11392 processors in total.
    GROUP2: NUMA nodes with ~128 processors each (systems 2, 16, 23),
    70 nodes and 8744 processors in total.
    """

    GROUP1 = "group-1"
    GROUP2 = "group-2"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


_CATEGORY_CODES: dict[Category, int] = {c: i for i, c in enumerate(all_categories())}
_SUBTYPE_CODES: dict[Subtype, int] = {s: i for i, s in enumerate(all_subtypes())}
_NO_SUBTYPE = -1

#: The column class and instance-dict memo key of each bulk log.
_LOG_COLUMNS = {
    "jobs": (JobColumns, "_job_columns"),
    "temperatures": (TemperatureColumns, "_temperature_columns"),
}


class EventIndex:
    """One event stream in time order, for windowed lookups.

    ``times`` / ``nodes`` hold the events sorted by time (stably, so
    simultaneous events keep their input order), and ``num_nodes`` is
    the node count the stream belongs to -- the given one, or one more
    than the largest node id.  Window queries locate each window with
    ``np.searchsorted`` on ``times`` instead of re-filtering and
    re-sorting the raw arrays on every analysis call.
    """

    __slots__ = ("times", "nodes", "num_nodes")

    def __init__(
        self, times: np.ndarray, nodes: np.ndarray, num_nodes: int | None = None
    ) -> None:
        times = np.asarray(times, dtype=float)
        nodes = np.asarray(nodes, dtype=np.int64)
        if times.shape != nodes.shape or times.ndim != 1:
            raise DatasetError("times and nodes must be matching 1-D arrays")
        if times.size and np.any(np.diff(times) < 0):
            order = np.argsort(times, kind="stable")
            times, nodes = times[order], nodes[order]
        self.times = times
        self.nodes = nodes
        inferred = int(nodes.max()) + 1 if nodes.size else 0
        self.num_nodes = inferred if num_nodes is None else int(num_nodes)
        if self.num_nodes < inferred:
            raise DatasetError(
                f"events reference node {inferred - 1} but num_nodes is "
                f"{self.num_nodes}"
            )

    def __len__(self) -> int:
        return int(self.times.size)


class FailureTable:
    """Columnar (numpy) view of a failure log, for vectorised analyses.

    Rows are sorted by time.  Columns:

    * ``times`` -- float64, days;
    * ``node_ids`` -- int64;
    * ``category_codes`` -- int64 codes (see :meth:`category_code`);
    * ``subtype_codes`` -- int64 codes, ``-1`` when no subtype is recorded.
    """

    def __init__(
        self, failures: Sequence[FailureRecord], num_nodes: int | None = None
    ) -> None:
        ordered = sorted(failures)
        self._records: tuple[FailureRecord, ...] = tuple(ordered)
        self._num_nodes = num_nodes
        self._event_indices: dict[
            tuple[Category | None, Subtype | None], EventIndex
        ] = {}
        n = len(ordered)
        self.times = np.fromiter((f.time for f in ordered), dtype=float, count=n)
        self.node_ids = np.fromiter(
            (f.node_id for f in ordered), dtype=np.int64, count=n
        )
        self.category_codes = np.fromiter(
            (_CATEGORY_CODES[f.category] for f in ordered), dtype=np.int64, count=n
        )
        self.subtype_codes = np.fromiter(
            (
                _SUBTYPE_CODES[f.subtype] if f.subtype is not None else _NO_SUBTYPE
                for f in ordered
            ),
            dtype=np.int64,
            count=n,
        )

    def rows_between(self, start: float, end: float) -> "FailureTable":
        """The rows with ``start <= time < end``, as a table of their own.

        The rows are sorted by time, so they are one range, found with a
        single ``searchsorted``.  The new table shares this one's column
        arrays (as views) and a slice of its records: it equals a table
        built from the filtered records, without re-sorting or
        re-reading them.
        """
        lo, hi = np.searchsorted(self.times, (start, end)).tolist()
        table = object.__new__(FailureTable)
        table._records = self._records[lo:hi]
        table._num_nodes = self._num_nodes
        table._event_indices = {}
        table.times = self.times[lo:hi]
        table.node_ids = self.node_ids[lo:hi]
        table.category_codes = self.category_codes[lo:hi]
        table.subtype_codes = self.subtype_codes[lo:hi]
        return table

    @property
    def records(self) -> tuple[FailureRecord, ...]:
        """The failure records, in row order."""
        return self._records

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[FailureRecord]:
        return iter(self._records)

    def record(self, row: int) -> FailureRecord:
        """The :class:`FailureRecord` behind table row ``row``."""
        return self._records[row]

    @staticmethod
    def category_code(category: Category) -> int:
        """Integer code of a high-level category in ``category_codes``."""
        return _CATEGORY_CODES[category]

    @staticmethod
    def subtype_code(subtype: Subtype) -> int:
        """Integer code of a subtype in ``subtype_codes``."""
        return _SUBTYPE_CODES[subtype]

    def mask(
        self,
        category: Category | None = None,
        subtype: Subtype | None = None,
        node_id: int | None = None,
    ) -> np.ndarray:
        """Boolean row mask selecting failures matching all given filters.

        A ``subtype`` filter implies its category; supplying both a subtype
        and a conflicting category raises :class:`DatasetError`.
        """
        m = np.ones(len(self), dtype=bool)
        if subtype is not None:
            if category is not None and category_of(subtype) is not category:
                raise DatasetError(
                    f"subtype {subtype!r} conflicts with category {category!r}"
                )
            m &= self.subtype_codes == _SUBTYPE_CODES[subtype]
        elif category is not None:
            m &= self.category_codes == _CATEGORY_CODES[category]
        if node_id is not None:
            m &= self.node_ids == node_id
        return m

    def select(
        self,
        category: Category | None = None,
        subtype: Subtype | None = None,
        node_id: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(times, node_ids)`` of failures matching the filters, sorted."""
        m = self.mask(category=category, subtype=subtype, node_id=node_id)
        return self.times[m], self.node_ids[m]

    def events(
        self,
        category: Category | None = None,
        subtype: Subtype | None = None,
    ) -> EventIndex:
        """Memoized :class:`EventIndex` of the matching failure subset.

        Window analyses query the same few streams (all failures, one
        category, one subtype) against many triggers; caching the
        filtered, time-sorted index turns each repeat lookup into pure
        ``searchsorted`` work.
        """
        key = (category, subtype)
        cached = self._event_indices.get(key)
        if cached is None:
            m = self.mask(category=category, subtype=subtype)
            cached = EventIndex(self.times[m], self.node_ids[m], self._num_nodes)
            self._event_indices[key] = cached
        return cached


@dataclass(frozen=True)
class SystemDataset:
    """Everything recorded about one system.

    Attributes:
        system_id: LANL-style numeric identifier.
        group: hardware group (SMP group-1 or NUMA group-2).
        num_nodes: node count of the system.
        processors_per_node: processor count per node (4 for group-1 SMPs,
            typically 128 for group-2 NUMA nodes).
        period: observation period of the system.
        failures: node-outage log.
        maintenance: unscheduled-maintenance log (may be empty).
        jobs: usage log (empty unless the system has one, like 8 and 20).
        temperatures: sensor readings (empty unless available, like 20).
        layout: machine layout (None unless available; group-1 only).
    """

    system_id: int
    group: HardwareGroup
    num_nodes: int
    processors_per_node: int
    period: ObservationPeriod
    failures: tuple[FailureRecord, ...] = ()
    maintenance: tuple[MaintenanceRecord, ...] = ()
    jobs: tuple[JobRecord, ...] = ()
    temperatures: tuple[TemperatureReading, ...] = ()
    layout: MachineLayout | None = None

    def __post_init__(self) -> None:
        self._check_consistency()
        # Normalise record ordering once, at construction.
        for name in ("failures", "maintenance", "jobs", "temperatures"):
            object.__setattr__(self, name, tuple(sorted(getattr(self, name))))

    def _check_consistency(self) -> None:
        """Check the scalars, the node ids of every log, and the layout."""
        if self.num_nodes < 1:
            raise DatasetError(f"num_nodes must be >= 1, got {self.num_nodes}")
        if self.processors_per_node < 1:
            raise DatasetError(
                f"processors_per_node must be >= 1, got {self.processors_per_node}"
            )
        for f in self.failures:
            if f.system_id != self.system_id:
                raise DatasetError(
                    f"failure for system {f.system_id} in dataset of system "
                    f"{self.system_id}"
                )
            if f.node_id >= self.num_nodes:
                raise DatasetError(
                    f"failure references node {f.node_id} but system "
                    f"{self.system_id} has only {self.num_nodes} nodes"
                )
            if not self.period.contains(f.time):
                raise DatasetError(
                    f"failure at t={f.time} outside observation period "
                    f"[{self.period.start}, {self.period.end})"
                )
        for m in self.maintenance:
            if m.system_id != self.system_id or m.node_id >= self.num_nodes:
                raise DatasetError(
                    f"maintenance record {m!r} inconsistent with system "
                    f"{self.system_id} ({self.num_nodes} nodes)"
                )
        for log, (_, memo) in _LOG_COLUMNS.items():
            # Columns carry no system id; records, when the log is held
            # as records, must all belong to this system.
            if memo not in self.__dict__:
                foreign = {r.system_id for r in getattr(self, log)}
                foreign.discard(self.system_id)
                if foreign:
                    raise DatasetError(
                        f"{log} log holds records of system(s) "
                        f"{sorted(foreign)} in dataset of system "
                        f"{self.system_id}"
                    )
            nodes = self.log_columns(log).node_ids
            if nodes.size and int(nodes.max()) >= self.num_nodes:
                raise DatasetError(
                    f"{log} log references node {int(nodes.max())} but system "
                    f"{self.system_id} has only {self.num_nodes} nodes"
                )
        if self.layout is not None:
            placed = set(self.layout.node_ids)
            expected = set(range(self.num_nodes))
            if placed != expected:
                raise DatasetError(
                    f"layout of system {self.system_id} places nodes "
                    f"{sorted(placed ^ expected)[:5]}... inconsistently with "
                    f"num_nodes={self.num_nodes}"
                )

    @cached_property
    def failure_table(self) -> FailureTable:
        """Columnar numpy view of the failure log (cached)."""
        return FailureTable(self.failures, num_nodes=self.num_nodes)

    def failures_between(self, start: float, end: float) -> "SystemDataset":
        """This system over ``[start, end)``, holding only its failures there.

        The maintenance, job and temperature logs are empty; the layout
        is kept.  The failure log is a row range of :attr:`failure_table`
        (:meth:`FailureTable.rows_between`), already sorted and checked,
        so nothing is re-sorted or re-checked: the result equals
        ``dataclasses.replace`` with the filtered failures and the new
        period.
        """
        table = self.failure_table.rows_between(start, end)
        changes = {
            "period": ObservationPeriod(start, end),
            "failures": table.records,
            "maintenance": (),
            "jobs": (),
            "temperatures": (),
        }
        view = object.__new__(type(self))
        for f in fields(self):
            # Set the way the frozen __init__ does, so the lazy logs'
            # property setters run; ``changes`` first, so a column-backed
            # log is never materialized.
            value = changes[f.name] if f.name in changes else getattr(self, f.name)
            object.__setattr__(view, f.name, value)
        view.__dict__["failure_table"] = table
        return view

    @cached_property
    def rack_of(self) -> np.ndarray | None:
        """Node -> rack id mapping from the layout (None without layout)."""
        if self.layout is None:
            return None
        return np.array(
            [self.layout.rack_of(n) for n in range(self.num_nodes)],
            dtype=np.int64,
        )

    @property
    def total_processors(self) -> int:
        """Total processor count of the system."""
        return self.num_nodes * self.processors_per_node

    def failures_of_node(self, node_id: int) -> tuple[FailureRecord, ...]:
        """All failures of one node, chronological."""
        if not (0 <= node_id < self.num_nodes):
            raise DatasetError(
                f"node {node_id} out of range for system {self.system_id}"
            )
        return tuple(f for f in self.failures if f.node_id == node_id)

    def failure_counts_per_node(self) -> np.ndarray:
        """Number of failures of each node (index = node id); Figure 4."""
        counts = np.zeros(self.num_nodes, dtype=np.int64)
        np.add.at(counts, self.failure_table.node_ids, 1)
        return counts

    def log_columns(self, log: str) -> JobColumns | TemperatureColumns:
        """The ``"jobs"`` or ``"temperatures"`` log as columns, without
        memoizing them: the memoized columns if there are any, else
        transient ones built from the records.  Writers and checks use
        it, so they leave no second copy of a log on a record-built
        dataset and materialize no records on a column-backed one.
        """
        kind, memo = _LOG_COLUMNS[log]
        cols = self.__dict__.get(memo)
        return kind.from_records(getattr(self, log)) if cols is None else cols

    def job_columns(self) -> JobColumns:
        """The job log as :class:`JobColumns` (built once, then memoized).

        A manual instance-dict memo rather than a ``cached_property``:
        :class:`_LazyColumnarSystem` pre-fills the ``_job_columns`` key
        with its columns, so they are served without materializing
        records, and its ``jobs`` setter clears the key.
        """
        return self.__dict__.setdefault("_job_columns", self.log_columns("jobs"))

    def temperature_columns(self) -> TemperatureColumns:
        """The temperature log as :class:`TemperatureColumns` (memoized).

        :class:`_LazyColumnarSystem` pre-fills the ``_temperature_columns``
        key and its ``temperatures`` setter clears it, as with
        :meth:`job_columns`.
        """
        return self.__dict__.setdefault(
            "_temperature_columns", self.log_columns("temperatures")
        )

    @property
    def has_usage(self) -> bool:
        """True if a job log is available (systems 8 and 20 at LANL)."""
        return self._has_log("jobs")

    @property
    def has_temperature(self) -> bool:
        """True if temperature readings are available (system 20 at LANL)."""
        return self._has_log("temperatures")

    def _has_log(self, log: str) -> bool:
        # Memoized columns answer without materializing records.
        cols = self.__dict__.get(_LOG_COLUMNS[log][1])
        return len(getattr(self, log) if cols is None else cols) > 0

    @property
    def has_layout(self) -> bool:
        """True if a machine layout is available (group-1 systems)."""
        return self.layout is not None


class _LazyColumnarSystem(SystemDataset):
    """A :class:`SystemDataset` whose job and temperature logs are columns.

    The two bulk logs live in the instance dict as :class:`JobColumns` /
    :class:`TemperatureColumns`, already checked and in record order;
    :meth:`job_columns` and :meth:`temperature_columns` serve them
    directly, and the record tuples materialise only on first access to
    ``jobs`` / ``temperatures`` (the properties shadow the dataclass
    fields).  The generator (:func:`~repro.simulate.archive.make_archive`),
    the CSV loader and the archive cache all build these, so generating,
    caching, saving and loading an archive never create a job or
    temperature record.

    The properties have setters (storing straight into the instance
    dict) so that ``dataclasses.replace`` and the generated frozen
    ``__init__`` -- which assign fields via ``object.__setattr__`` --
    keep working on instances of this class; normal attribute assignment
    still raises ``FrozenInstanceError`` through the dataclass
    ``__setattr__``.
    """

    @classmethod
    def from_columns(
        cls,
        *,
        jobs: JobColumns,
        temperatures: TemperatureColumns,
        **fields,
    ) -> "_LazyColumnarSystem":
        """Build a dataset from the record fields plus the two column logs.

        ``fields`` are all the other dataclass fields.  Runs every
        :class:`SystemDataset` check except the per-record ones on jobs
        and temperatures: the caller has checked those columns
        (``invalid_rows``) and put them in record order
        (``in_record_order``).
        """
        ds = cls.unchecked(jobs=jobs, temperatures=temperatures, **fields)
        ds._check_consistency()
        for name in ("failures", "maintenance"):
            ds.__dict__[name] = tuple(sorted(ds.__dict__[name]))
        return ds

    @classmethod
    def unchecked(
        cls, *, jobs: JobColumns, temperatures: TemperatureColumns, **fields
    ) -> "_LazyColumnarSystem":
        """:meth:`from_columns` without its checks, for fields that were
        checked and sorted when they were first built."""
        ds = object.__new__(cls)
        ds.__dict__.update(
            fields, _job_columns=jobs, _temperature_columns=temperatures
        )
        return ds

    @property
    def jobs(self) -> tuple[JobRecord, ...]:
        cached = self.__dict__.get("_jobs")
        if cached is None:
            c = self.__dict__["_job_columns"]
            submit = c.submit_times.tolist()
            job_id = c.job_ids.tolist()
            dispatch = c.dispatch_times.tolist()
            end = c.end_times.tolist()
            user = c.user_ids.tolist()
            nprocs = c.num_processors.tolist()
            failed = c.failed_due_to_node.tolist()
            offsets = c.node_offsets.tolist()
            nodes = c.node_ids.tolist()
            sid = self.system_id
            cached = tuple(
                JobRecord(
                    submit_time=submit[i],
                    system_id=sid,
                    job_id=job_id[i],
                    dispatch_time=dispatch[i],
                    end_time=end[i],
                    user_id=user[i],
                    num_processors=nprocs[i],
                    node_ids=tuple(nodes[offsets[i] : offsets[i + 1]]),
                    failed_due_to_node=failed[i],
                )
                for i in range(len(submit))
            )
            self.__dict__["_jobs"] = cached
        return cached

    @jobs.setter
    def jobs(self, value) -> None:
        # Replaced records make the stored columns stale: drop them so
        # job_columns() rebuilds from the records.
        self.__dict__.pop("_job_columns", None)
        self.__dict__["_jobs"] = tuple(value)

    @property
    def temperatures(self) -> tuple[TemperatureReading, ...]:
        cached = self.__dict__.get("_temperatures")
        if cached is None:
            c = self.__dict__["_temperature_columns"]
            cached = tuple(
                map(
                    TemperatureReading,
                    c.times.tolist(),
                    repeat(self.system_id),
                    c.node_ids.tolist(),
                    c.celsius.tolist(),
                )
            )
            self.__dict__["_temperatures"] = cached
        return cached

    @temperatures.setter
    def temperatures(self, value) -> None:
        self.__dict__.pop("_temperature_columns", None)
        self.__dict__["_temperatures"] = tuple(value)


class Archive:
    """A complete multi-system archive, mirroring the LANL release shape.

    Attributes:
        systems: mapping system_id -> :class:`SystemDataset`.
        neutron_series: site-wide neutron monitor readings (may be empty).
    """

    def __init__(
        self,
        systems: Iterable[SystemDataset],
        neutron_series: Sequence[NeutronReading] = (),
    ) -> None:
        self.systems: dict[int, SystemDataset] = {}
        for ds in systems:
            if ds.system_id in self.systems:
                raise DatasetError(f"duplicate system id {ds.system_id}")
            self.systems[ds.system_id] = ds
        if not self.systems:
            raise DatasetError("an archive must contain at least one system")
        self.neutron_series: tuple[NeutronReading, ...] = tuple(
            sorted(neutron_series)
        )

    def __len__(self) -> int:
        return len(self.systems)

    def __iter__(self) -> Iterator[SystemDataset]:
        return iter(self.systems[k] for k in sorted(self.systems))

    def __getitem__(self, system_id: int) -> SystemDataset:
        try:
            return self.systems[system_id]
        except KeyError as exc:
            raise DatasetError(f"no system {system_id} in archive") from exc

    def group(self, group: HardwareGroup) -> list[SystemDataset]:
        """All systems belonging to one hardware group, by ascending id."""
        return [ds for ds in self if ds.group is group]

    @property
    def neutron_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """``neutron_series`` as read-only (times, counts per minute)
        float arrays, built once per series."""
        cached = self.__dict__.get("_neutron_columns")
        if cached is None or cached[0] is not self.neutron_series:
            columns = neutron_columns(self.neutron_series)
            for column in columns:
                column.flags.writeable = False
            cached = self._neutron_columns = (self.neutron_series, *columns)
        return cached[1], cached[2]

    @property
    def system_ids(self) -> tuple[int, ...]:
        """All system ids, ascending."""
        return tuple(sorted(self.systems))

    def total_nodes(self, group: HardwareGroup | None = None) -> int:
        """Total node count, optionally restricted to one group."""
        return sum(
            ds.num_nodes for ds in self if group is None or ds.group is group
        )

    def total_failures(self, group: HardwareGroup | None = None) -> int:
        """Total failure count, optionally restricted to one group."""
        return sum(
            len(ds.failures) for ds in self if group is None or ds.group is group
        )
