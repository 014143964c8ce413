"""The one column-backed dataset against record-built references.

A :class:`SystemDataset` stores every log as columns: its failure log
as a :class:`FailureTable`, its maintenance log as a
:class:`MaintenanceTable`; an :class:`Archive` holds its neutron series
as a :class:`NeutronSeries`.  ``from_records`` is the one entry point
that takes records; the loader, the archive cache, the generator and
``failures_between`` all build from columns.  On random logs (time
ties, unsorted input, missing subtypes, empty and one-node systems)
both builds must give the same columns and the records ``sorted()``
gives, and each vectorised record check must reject exactly the rows
its record rejects.  With every record's construction made to fail,
generating, loading, caching, saving, reporting and replaying an
archive must still run: none of them builds a record.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.report import full_report
from repro.records.dataset import Archive, FailureTable, HardwareGroup, SystemDataset
from repro.records.environment import (
    EnvironmentRecordError,
    NeutronReading,
    NeutronSeries,
    TemperatureReading,
)
from repro.records.failure import (
    FailureRecord,
    MaintenanceRecord,
    MaintenanceTable,
    RecordError,
)
from repro.records.io import load_archive, save_archive
from repro.records.taxonomy import (
    Category,
    TaxonomyError,
    all_categories,
    all_subtypes,
    category_of,
)
from repro.records.timeutil import ObservationPeriod
from repro.simulate.archive import make_archive
from repro.simulate.cache import load_cached, store_cached
from repro.records.usage import JobRecord
from repro.simulate.config import small_config
from repro.stream import archive_source
from tests.records.record_views import failure_records

SYSTEM_ID = 7
PERIOD = ObservationPeriod(0.0, 30.0)
#: A few distinct times, so that failures tie and bounds land on them.
TIMES = [0.0, 0.5, 1.0, 3.25, 7.0, 7.0 + 2**-40, 19.5, 29.0]
SUBTYPES_OF = {
    c: [None, *(s for s in all_subtypes() if category_of(s) is c)]
    for c in all_categories()
}


@st.composite
def failure_logs(draw) -> tuple[int, list[FailureRecord]]:
    num_nodes = draw(st.sampled_from([1, 1, 2, 4]))
    failures = []
    for category in draw(st.lists(st.sampled_from(all_categories()), max_size=30)):
        failures.append(
            FailureRecord(
                time=draw(st.sampled_from(TIMES)),
                system_id=SYSTEM_ID,
                node_id=draw(st.integers(0, num_nodes - 1)),
                category=category,
                subtype=draw(st.sampled_from(SUBTYPES_OF[category])),
                downtime_hours=draw(st.sampled_from([0.0, 1.5, 1e-9, 12.25])),
            )
        )
    return num_nodes, failures


def scalars(num_nodes: int, period: ObservationPeriod = PERIOD) -> dict:
    return {
        "system_id": SYSTEM_ID,
        "group": HardwareGroup.GROUP1,
        "num_nodes": num_nodes,
        "processors_per_node": 4,
        "period": period,
    }


def columns_of(records) -> FailureTable:
    """The records' columns in the given order, built field by field."""
    return FailureTable(
        times=np.array([f.time for f in records], dtype=float),
        node_ids=np.array([f.node_id for f in records], dtype=np.int64),
        category_codes=np.array(
            [FailureTable.category_code(f.category) for f in records], dtype=np.int64
        ),
        subtype_codes=np.array(
            [FailureTable.subtype_code(f.subtype) for f in records], dtype=np.int64
        ),
        downtime_hours=np.array([f.downtime_hours for f in records], dtype=float),
    )


def assert_same_failures(got: SystemDataset, records) -> None:
    """``got``'s table holds ``sorted(records)``, column by column, and
    materialises the same records, every field equal."""
    expected = sorted(records)
    want = columns_of(expected)
    for f in dataclasses.fields(FailureTable):
        a, b = getattr(got.failure_table, f.name), getattr(want, f.name)
        assert a.dtype == b.dtype and a.tolist() == b.tolist(), f.name
    assert [dataclasses.astuple(r) for r in failure_records(got)] == [
        dataclasses.astuple(r) for r in expected
    ]


class TestOneDataset:
    @settings(max_examples=200, deadline=None)
    @given(failure_logs())
    def test_from_records_equals_column_built(self, log):
        num_nodes, records = log
        from_records = SystemDataset.from_records(
            **scalars(num_nodes), failures=records
        )
        # Columns in input (unsorted) order: the constructor sorts them.
        from_columns = SystemDataset(
            **scalars(num_nodes), failure_table=columns_of(records)
        )
        assert_same_failures(from_records, records)
        assert_same_failures(from_columns, records)
        assert from_records.failure_counts_per_node().tolist() == (
            from_columns.failure_counts_per_node().tolist()
        )

    @settings(max_examples=200, deadline=None)
    @given(failure_logs(), st.data())
    def test_failures_between_equals_filtered_records(self, log, data):
        num_nodes, records = log
        ds = SystemDataset.from_records(**scalars(num_nodes), failures=records)
        start, end = sorted(
            data.draw(
                st.lists(
                    st.sampled_from([*TIMES, 30.0, 12.5]),
                    min_size=2,
                    max_size=2,
                    unique=True,
                )
            )
        )
        view = ds.failures_between(start, end)
        period = ObservationPeriod(start, end)
        kept = [f for f in records if start <= f.time < end]
        want = SystemDataset.from_records(**scalars(num_nodes, period), failures=kept)
        assert view.period == want.period
        assert_same_failures(view, kept)
        assert_same_failures(want, kept)
        assert not view.has_usage and not view.has_temperature

    def test_empty_log(self):
        ds = SystemDataset.from_records(**scalars(1))
        assert len(ds.failure_table) == 0 and failure_records(ds) == ()
        assert failure_records(ds.failures_between(1.0, 2.0)) == ()


#: Raw field values, legal and not, for the record check.
ROW_TIMES = [0.0, -0.0, 2.5, -1.0, float("nan"), float("inf"), -float("inf")]
ROW_HOURS = [0.0, 3.0, -0.5, float("nan"), float("inf")]


class TestRecordCheck:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(ROW_TIMES),
                st.integers(-2, 3),
                st.sampled_from(all_categories()),
                st.sampled_from([None, *all_subtypes()]),
                st.sampled_from(ROW_HOURS),
            ),
            max_size=20,
        )
    )
    def test_rejects_what_records_reject(self, rows):
        table = FailureTable(
            times=np.array([r[0] for r in rows], dtype=float),
            node_ids=np.array([r[1] for r in rows], dtype=np.int64),
            category_codes=np.array(
                [FailureTable.category_code(r[2]) for r in rows], dtype=np.int64
            ),
            subtype_codes=np.array(
                [FailureTable.subtype_code(r[3]) for r in rows], dtype=np.int64
            ),
            downtime_hours=np.array([r[4] for r in rows], dtype=float),
        )
        rejected = []
        for time, node, category, subtype, hours in rows:
            try:
                FailureRecord(time, SYSTEM_ID, node, category, subtype, hours)
            except (RecordError, TaxonomyError):
                rejected.append(True)
            else:
                rejected.append(False)
        assert table.invalid_rows().tolist() == rejected
        if any(rejected):
            with pytest.raises(RecordError):
                table.check()
            with pytest.raises(RecordError):
                SystemDataset(**scalars(4), failure_table=table)

    @pytest.mark.parametrize(
        "column, code",
        [
            ("category_codes", len(FailureTable.CATEGORIES)),
            ("category_codes", -1),
            ("subtype_codes", len(FailureTable.SUBTYPES) - 1),
            ("subtype_codes", -2),
        ],
    )
    def test_rejects_codes_outside_the_tables(self, column, code):
        row = {
            "times": np.array([1.0]),
            "node_ids": np.array([0]),
            "category_codes": np.array([FailureTable.category_code(Category.HARDWARE)]),
            "subtype_codes": np.array([-1]),
            "downtime_hours": np.array([0.0]),
        }
        row[column] = np.array([code])
        assert FailureTable(**row).invalid_rows().tolist() == [True]


@st.composite
def maintenance_logs(draw) -> tuple[int, list[MaintenanceRecord]]:
    num_nodes = draw(st.sampled_from([1, 1, 2, 4]))
    events = [
        MaintenanceRecord(
            time=draw(st.sampled_from(TIMES)),
            system_id=SYSTEM_ID,
            node_id=draw(st.integers(0, num_nodes - 1)),
            hardware_related=draw(st.booleans()),
            duration_hours=draw(st.sampled_from([0.0, 1.5, 1e-9, 12.25])),
        )
        for _ in range(draw(st.integers(0, 30)))
    ]
    return num_nodes, events


#: Counts per minute, tied and not, so that readings tied on time sort
#: by their counts.
COUNTS = [0.0, 3900.5, 4000.0, 4000.0 + 2**-30]


@st.composite
def neutron_logs(draw) -> list[NeutronReading]:
    return [
        NeutronReading(
            time=draw(st.sampled_from(TIMES)),
            counts_per_minute=draw(st.sampled_from(COUNTS)),
        )
        for _ in range(draw(st.integers(0, 30)))
    ]


def table_of(cls, records, **fields_of):
    """A ``cls`` of the records' fields, in the given order: column
    ``name`` of ``fields_of[name]`` of each record, with the dtype of
    the empty table's column."""
    empty = cls.from_records(())
    return cls(
        **{
            name: np.array(
                [getattr(r, field) for r in records],
                dtype=getattr(empty, name).dtype,
            )
            for name, field in fields_of.items()
        }
    )


MAINTENANCE_FIELDS = {
    "times": "time",
    "node_ids": "node_id",
    "hardware_related": "hardware_related",
    "duration_hours": "duration_hours",
}
NEUTRON_FIELDS = {"times": "time", "counts_per_minute": "counts_per_minute"}


def assert_same_columns(got, want) -> None:
    assert type(got) is type(want)
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert a.dtype == b.dtype and a.tolist() == b.tolist(), f.name


class TestMaintenanceAndNeutronTables:
    @settings(max_examples=200, deadline=None)
    @given(maintenance_logs())
    def test_maintenance_from_records_equals_sorted_records(self, log):
        num_nodes, events = log
        want = table_of(MaintenanceTable, sorted(events), **MAINTENANCE_FIELDS)
        assert_same_columns(MaintenanceTable.from_records(events), want)
        from_records = SystemDataset.from_records(
            **scalars(num_nodes), maintenance=events
        )
        # Columns in input (unsorted) order: the constructor sorts them.
        from_columns = SystemDataset(
            **scalars(num_nodes),
            maintenance=table_of(MaintenanceTable, events, **MAINTENANCE_FIELDS),
        )
        assert_same_columns(from_records.maintenance, want)
        assert_same_columns(from_columns.maintenance, want)

    @settings(max_examples=200, deadline=None)
    @given(neutron_logs())
    def test_neutrons_from_records_equal_sorted_records(self, readings):
        want = table_of(NeutronSeries, sorted(readings), **NEUTRON_FIELDS)
        assert_same_columns(NeutronSeries.from_records(readings), want)
        archive = Archive(
            [SystemDataset(**scalars(1))],
            neutron_series=table_of(NeutronSeries, readings, **NEUTRON_FIELDS),
        )
        assert_same_columns(archive.neutron_series, want)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(ROW_TIMES),
                st.integers(-2, 3),
                st.booleans(),
                st.sampled_from(ROW_HOURS),
            ),
            max_size=20,
        )
    )
    def test_maintenance_rejects_what_records_reject(self, rows):
        table = MaintenanceTable(
            times=np.array([r[0] for r in rows], dtype=float),
            node_ids=np.array([r[1] for r in rows], dtype=np.int64),
            hardware_related=np.array([r[2] for r in rows], dtype=bool),
            duration_hours=np.array([r[3] for r in rows], dtype=float),
        )
        rejected = []
        for time, node, hardware, hours in rows:
            try:
                MaintenanceRecord(time, SYSTEM_ID, node, hardware, hours)
            except RecordError:
                rejected.append(True)
            else:
                rejected.append(False)
        assert table.invalid_rows().tolist() == rejected
        if any(rejected):
            with pytest.raises(RecordError):
                table.check()
            with pytest.raises(RecordError):
                SystemDataset(**scalars(4), maintenance=table)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(ROW_TIMES),
                st.sampled_from([*ROW_HOURS, -0.0, 4000.0, -float("inf")]),
            ),
            max_size=20,
        )
    )
    def test_neutrons_reject_what_records_reject(self, rows):
        series = NeutronSeries(
            times=np.array([r[0] for r in rows], dtype=float),
            counts_per_minute=np.array([r[1] for r in rows], dtype=float),
        )
        rejected = []
        for time, counts in rows:
            try:
                NeutronReading(time, counts)
            except EnvironmentRecordError:
                rejected.append(True)
            else:
                rejected.append(False)
        assert series.invalid_rows().tolist() == rejected
        if any(rejected):
            with pytest.raises(EnvironmentRecordError):
                series.check()
            with pytest.raises(EnvironmentRecordError):
                Archive([SystemDataset(**scalars(1))], neutron_series=series)


#: Every record class: no data path may build one.
RECORDS = (FailureRecord, MaintenanceRecord, JobRecord, TemperatureReading, NeutronReading)


def test_load_cache_save_report_and_replay_build_no_failure_record(
    monkeypatch, tmp_path
):
    config = small_config(seed=2, years=1.0, scale=0.03)

    def built(self):
        raise AssertionError(f"built a {type(self).__name__}")

    for record in RECORDS:
        monkeypatch.setattr(record, "__post_init__", built)
    generated = make_archive(config)
    assert len(generated.neutron_series) > 0
    assert any(len(ds.maintenance) for ds in generated)
    assert any(ds.has_usage for ds in generated)
    assert any(ds.has_temperature for ds in generated)
    store_cached(config, generated, tmp_path / "cache")
    save_archive(generated, tmp_path / "csv")
    loaded = load_archive(tmp_path / "csv")
    cached = load_cached(config, tmp_path / "cache")
    assert cached is not None
    report = full_report(loaded)
    assert full_report(cached) == report
    events = list(archive_source(loaded))
    assert len(events) == loaded.total_failures() > 0
    save_archive(cached, tmp_path / "again")
