"""Dataset containers: one system's logs, and a multi-system archive.

:class:`SystemDataset` bundles everything recorded about one LANL-style
system -- failures, maintenance events, job logs, temperature readings,
machine layout -- with its observation period and hardware group.  Every
log is stored as numpy columns (:class:`FailureTable`,
:class:`~repro.records.failure.MaintenanceTable`,
:class:`~repro.records.usage.JobColumns`,
:class:`~repro.records.environment.TemperatureColumns`), which the
analysis layer reads directly.

:class:`Archive` bundles all systems plus the site-wide neutron monitor
series (:class:`~repro.records.environment.NeutronSeries`) and mirrors
the shape of the public LANL release: ten systems in two hardware groups.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import ClassVar, Iterable, Iterator, Sequence

import numpy as np

from .environment import NeutronSeries, TemperatureColumns, TemperatureReading
from .failure import FailureRecord, MaintenanceRecord, MaintenanceTable, RecordError
from .layout import MachineLayout
from .taxonomy import (
    Category,
    Subtype,
    all_categories,
    all_subtypes,
    category_of,
)
from .timeutil import ObservationPeriod
from .usage import JobColumns, JobRecord, check_rows, checked_in_record_order
from .usage import rows_of, sorted_rows


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


_NO_SUBTYPE = -1
_CATEGORY_CODES: dict[Category, int] = {c: i for i, c in enumerate(all_categories())}
_SUBTYPE_CODES: dict[Subtype | None, int] = {
    **{s: i for i, s in enumerate(all_subtypes())},
    None: _NO_SUBTYPE,
}
#: The category code each subtype code refines; ``-1`` (no subtype)
#: indexes the trailing entry, which refines nothing.
_SUBTYPE_CATEGORY = np.array(
    [*(_CATEGORY_CODES[category_of(s)] for s in all_subtypes()), _NO_SUBTYPE],
    dtype=np.int64,
)


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


@dataclass(frozen=True, eq=False)
class FailureTable:
    """A failure log as numpy columns, one row per outage.

    Columns:

    * ``times`` -- float64, days;
    * ``node_ids`` -- int64;
    * ``category_codes`` -- int64 indexes into :attr:`CATEGORIES`;
    * ``subtype_codes`` -- int64 indexes into :attr:`SUBTYPES`, ``-1``
      (its last entry, ``None``) when no subtype is recorded;
    * ``downtime_hours`` -- float64.

    The constructor wraps the columns as given; :meth:`from_records`
    builds them from records, and :meth:`in_record_order` puts rows in
    the order ``sorted(records)`` gives one system's records: by time,
    then node, ties in input order.
    """

    #: Category of each category code.
    CATEGORIES: ClassVar[tuple[Category, ...]] = all_categories()
    #: Subtype of each subtype code; code ``-1`` is the trailing ``None``.
    SUBTYPES: ClassVar[tuple[Subtype | None, ...]] = (*all_subtypes(), None)

    times: np.ndarray
    node_ids: np.ndarray
    category_codes: np.ndarray
    subtype_codes: np.ndarray
    downtime_hours: np.ndarray

    def __post_init__(self) -> None:
        # The memo of events(), per (category, subtype) filter.
        object.__setattr__(self, "_event_indices", {})

    @classmethod
    def from_records(cls, failures: Sequence[FailureRecord]) -> "FailureTable":
        """The columns of ``failures``, in record order."""
        n = len(failures)
        return cls(
            np.fromiter((f.time for f in failures), float, n),
            np.fromiter((f.node_id for f in failures), np.int64, n),
            np.fromiter((_CATEGORY_CODES[f.category] for f in failures), np.int64, n),
            np.fromiter((_SUBTYPE_CODES[f.subtype] for f in failures), np.int64, n),
            np.fromiter((f.downtime_hours for f in failures), float, n),
        ).in_record_order()

    def invalid_rows(self) -> np.ndarray:
        """Mask of the rows :class:`FailureRecord` would reject: every
        ``__post_init__`` check, evaluated on the columns, plus codes
        outside the code tables."""
        t, d = self.times, self.downtime_hours
        cats, subs = self.category_codes, self.subtype_codes
        bad = ~(np.isfinite(t) & (t >= 0) & np.isfinite(d) & (d >= 0))
        bad |= (self.node_ids < 0) | (cats < 0) | (cats >= len(self.CATEGORIES))
        bad |= (subs < _NO_SUBTYPE) | (subs >= len(self.SUBTYPES) - 1)
        refined = _SUBTYPE_CATEGORY[np.clip(subs, _NO_SUBTYPE, len(self.SUBTYPES) - 2)]
        bad |= (refined != _NO_SUBTYPE) & (refined != cats)
        return bad

    def check(self) -> None:
        """Raise :class:`RecordError` if a row breaks a
        :class:`FailureRecord` invariant."""
        check_rows(self, RecordError, "failures")

    def in_record_order(self) -> "FailureTable":
        """These rows in the order their records sort in."""
        return sorted_rows(self, self.times, self.node_ids)

    def rows_between(self, start: float, end: float) -> "FailureTable":
        """The rows with ``start <= time < end``, as a table of their own.

        The rows are sorted by time, so they are one range, found with a
        single ``searchsorted``; the new table's columns are views of
        this one's.
        """
        lo, hi = np.searchsorted(self.times, (start, end)).tolist()
        return rows_of(self, slice(lo, hi))

    def __len__(self) -> int:
        return int(self.times.size)

    @staticmethod
    def category_code(category: Category) -> int:
        """Integer code of a high-level category in ``category_codes``."""
        return _CATEGORY_CODES[category]

    @staticmethod
    def subtype_code(subtype: Subtype | None) -> int:
        """Integer code of a subtype (or ``None``) in ``subtype_codes``."""
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
            cached = EventIndex(self.times[m], self.node_ids[m])
            self._event_indices[key] = cached
        return cached


@dataclass(frozen=True, eq=False)
class SystemDataset:
    """Everything recorded about one system.

    The constructor checks every log with the record invariants (on the
    columns), puts each in record order and checks them against the
    system: node ids, observation period, layout.
    :meth:`from_records` builds a dataset from record logs.

    Attributes:
        system_id: LANL-style numeric identifier.
        group: hardware group (SMP group-1 or NUMA group-2).
        num_nodes: node count of the system.
        processors_per_node: processor count per node (4 for group-1 SMPs,
            typically 128 for group-2 NUMA nodes).
        period: observation period of the system.
        failure_table: node-outage log.
        maintenance: unscheduled-maintenance log (may be empty).
        job_columns: usage log (empty unless the system has one, like 8
            and 20).
        temperature_columns: sensor readings (empty unless available,
            like 20).
        layout: machine layout (None unless available; group-1 only).
    """

    #: The class of each log, by field.
    LOGS: ClassVar[dict[str, type]] = {
        "failure_table": FailureTable,
        "maintenance": MaintenanceTable,
        "job_columns": JobColumns,
        "temperature_columns": TemperatureColumns,
    }

    system_id: int
    group: HardwareGroup
    num_nodes: int
    processors_per_node: int
    period: ObservationPeriod
    failure_table: FailureTable = field(
        default_factory=partial(FailureTable.from_records, ())
    )
    maintenance: MaintenanceTable = field(
        default_factory=partial(MaintenanceTable.from_records, ())
    )
    job_columns: JobColumns = field(
        default_factory=partial(JobColumns.from_records, ())
    )
    temperature_columns: TemperatureColumns = field(
        default_factory=partial(TemperatureColumns.from_records, ())
    )
    layout: MachineLayout | None = None

    @classmethod
    def from_records(
        cls,
        *,
        failures: Iterable[FailureRecord] = (),
        maintenance: Iterable[MaintenanceRecord] = (),
        jobs: Iterable[JobRecord] = (),
        temperatures: Iterable[TemperatureReading] = (),
        **others,
    ) -> "SystemDataset":
        """A dataset whose logs are given as records of its system;
        ``others`` are the other constructor arguments."""
        logs = {
            "failures": tuple(failures),
            "maintenance": tuple(maintenance),
            "jobs": tuple(jobs),
            "temperatures": tuple(temperatures),
        }
        system_id = others["system_id"]
        for log, records in logs.items():
            foreign = {r.system_id for r in records} - {system_id}
            if foreign:
                raise DatasetError(
                    f"{log} log holds records of system(s) {sorted(foreign)} "
                    f"in dataset of system {system_id}"
                )
        return cls(
            failure_table=FailureTable.from_records(logs["failures"]),
            maintenance=MaintenanceTable.from_records(logs["maintenance"]),
            job_columns=JobColumns.from_records(logs["jobs"]),
            temperature_columns=TemperatureColumns.from_records(
                logs["temperatures"]
            ),
            **others,
        )

    def __post_init__(self) -> None:
        for name in self.LOGS:
            object.__setattr__(
                self, name, checked_in_record_order(getattr(self, name))
            )
        self._check_consistency()

    def _check_consistency(self) -> None:
        """Check the scalars, the node ids of every log, and the layout."""
        if self.num_nodes < 1:
            raise DatasetError(f"num_nodes must be >= 1, got {self.num_nodes}")
        if self.processors_per_node < 1:
            raise DatasetError(
                f"processors_per_node must be >= 1, got {self.processors_per_node}"
            )
        times = self.failure_table.times
        outside = times[(times < self.period.start) | (times >= self.period.end)]
        if outside.size:
            raise DatasetError(
                f"failure at t={outside[0]} outside observation period "
                f"[{self.period.start}, {self.period.end})"
            )
        for log, nodes in (
            ("failures", self.failure_table.node_ids),
            ("maintenance", self.maintenance.node_ids),
            ("jobs", self.job_columns.node_ids),
            ("temperatures", self.temperature_columns.node_ids),
        ):
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

    def failures_between(self, start: float, end: float) -> "SystemDataset":
        """This system over ``[start, end)``, holding only its failures there.

        The maintenance, job and temperature logs are empty; the layout
        is kept.  The failure log is a row range of :attr:`failure_table`
        (:meth:`FailureTable.rows_between`).
        """
        return SystemDataset(
            system_id=self.system_id,
            group=self.group,
            num_nodes=self.num_nodes,
            processors_per_node=self.processors_per_node,
            period=ObservationPeriod(start, end),
            failure_table=self.failure_table.rows_between(start, end),
            layout=self.layout,
        )

    @cached_property
    def rack_of(self) -> np.ndarray | None:
        """Node -> rack id mapping from the layout (None without layout)."""
        if self.layout is None:
            return None
        return np.array(
            [self.layout.rack_of(n) for n in range(self.num_nodes)],
            dtype=np.int64,
        )

    def failure_counts_per_node(self) -> np.ndarray:
        """Number of failures of each node (index = node id); Figure 4."""
        counts = np.zeros(self.num_nodes, dtype=np.int64)
        np.add.at(counts, self.failure_table.node_ids, 1)
        return counts

    @property
    def has_usage(self) -> bool:
        """True if a job log is available (systems 8 and 20 at LANL)."""
        return len(self.job_columns) > 0

    @property
    def has_temperature(self) -> bool:
        """True if temperature readings are available (system 20 at LANL)."""
        return len(self.temperature_columns) > 0

    @property
    def has_layout(self) -> bool:
        """True if a machine layout is available (group-1 systems)."""
        return self.layout is not None


class Archive:
    """A complete multi-system archive, mirroring the LANL release shape.

    Attributes:
        systems: mapping system_id -> :class:`SystemDataset`.
        neutron_series: site-wide neutron monitor readings (may be empty),
            checked and in record order.
    """

    def __init__(
        self,
        systems: Iterable[SystemDataset],
        neutron_series: NeutronSeries | None = None,
    ) -> None:
        self.systems: dict[int, SystemDataset] = {}
        for ds in systems:
            if ds.system_id in self.systems:
                raise DatasetError(f"duplicate system id {ds.system_id}")
            self.systems[ds.system_id] = ds
        if not self.systems:
            raise DatasetError("an archive must contain at least one system")
        self.neutron_series: NeutronSeries = checked_in_record_order(
            neutron_series or NeutronSeries.from_records(())
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
    def system_ids(self) -> tuple[int, ...]:
        """All system ids, ascending."""
        return tuple(sorted(self.systems))

    def total_failures(self, group: HardwareGroup | None = None) -> int:
        """Total failure count, optionally restricted to one group."""
        return sum(
            len(ds.failure_table)
            for ds in self
            if group is None or ds.group is group
        )
