"""Unit tests for dataset containers and the columnar failure table."""

import dataclasses

import numpy as np
import pytest

from repro.records.dataset import (
    Archive,
    DatasetError,
    FailureTable,
    HardwareGroup,
    SystemDataset,
)
from repro.records.environment import TemperatureColumns, TemperatureReading
from repro.records.failure import FailureRecord, MaintenanceTable
from repro.records.layout import regular_layout
from repro.records.taxonomy import Category, HardwareSubtype
from repro.records.timeutil import ObservationPeriod
from repro.records.usage import JobColumns, JobRecord
from tests.records.record_views import (
    failure_records,
    failure_table_records,
    job_records,
    temperature_records,
)


def fail(time, node=0, cat=Category.HARDWARE, sub=None, system=20):
    return FailureRecord(
        time=time, system_id=system, node_id=node, category=cat, subtype=sub
    )


def dataset(failures=(), num_nodes=4, system=20, **kw):
    return SystemDataset.from_records(
        system_id=system,
        group=HardwareGroup.GROUP1,
        num_nodes=num_nodes,
        processors_per_node=4,
        period=ObservationPeriod(0.0, 100.0),
        failures=tuple(failures),
        **kw,
    )


class TestFailureTable:
    def test_sorted_and_indexed(self):
        t = FailureTable.from_records(
            [fail(5.0, node=1), fail(1.0, node=2, sub=HardwareSubtype.CPU)]
        )
        assert t.times.tolist() == [1.0, 5.0]
        assert t.node_ids.tolist() == [2, 1]
        assert len(t) == 2
        assert failure_table_records(t, 20)[0].subtype is HardwareSubtype.CPU

    def test_mask_by_category(self):
        t = FailureTable.from_records([fail(1.0), fail(2.0, cat=Category.SOFTWARE)])
        assert t.mask(category=Category.HARDWARE).tolist() == [True, False]

    def test_mask_by_subtype(self):
        t = FailureTable.from_records(
            [fail(1.0, sub=HardwareSubtype.MEMORY), fail(2.0, sub=HardwareSubtype.CPU)]
        )
        m = t.mask(subtype=HardwareSubtype.MEMORY)
        assert m.tolist() == [True, False]

    def test_mask_subtype_conflicting_category(self):
        t = FailureTable.from_records([fail(1.0, sub=HardwareSubtype.MEMORY)])
        with pytest.raises(DatasetError):
            t.mask(category=Category.SOFTWARE, subtype=HardwareSubtype.MEMORY)

    def test_mask_by_node(self):
        t = FailureTable.from_records([fail(1.0, node=0), fail(2.0, node=3)])
        assert t.mask(node_id=3).tolist() == [False, True]

    def test_select(self):
        t = FailureTable.from_records(
            [fail(1.0, node=0), fail(2.0, node=1, cat=Category.NETWORK)]
        )
        times, nodes = t.select(category=Category.NETWORK)
        assert times.tolist() == [2.0]
        assert nodes.tolist() == [1]

    def test_empty(self):
        t = FailureTable.from_records([])
        assert len(t) == 0
        assert t.mask(category=Category.HARDWARE).shape == (0,)


class TestSystemDataset:
    def test_valid(self):
        ds = dataset([fail(1.0), fail(2.0, node=3)])
        assert len(ds.failure_table) == 2

    def test_sorts_failures(self):
        ds = dataset([fail(5.0), fail(1.0)])
        assert ds.failure_table.times[0] == 1.0

    def test_rejects_wrong_system_id(self):
        with pytest.raises(DatasetError):
            dataset([fail(1.0, system=99)])

    def test_rejects_node_out_of_range(self):
        with pytest.raises(DatasetError):
            dataset([fail(1.0, node=10)], num_nodes=4)

    def test_rejects_failure_outside_period(self):
        with pytest.raises(DatasetError):
            dataset([fail(150.0)])

    def test_rejects_job_node_out_of_range(self):
        with pytest.raises(DatasetError, match="jobs log references node 99999"):
            dataset(jobs=(job(1, 1.0, [0]), job(2, 2.0, [1, 99999])))

    def test_rejects_temperature_node_out_of_range(self):
        far = TemperatureReading(time=1.0, system_id=20, node_id=88888, celsius=25.0)
        with pytest.raises(
            DatasetError, match="temperatures log references node 88888"
        ):
            dataset(temperatures=(far,))

    def test_rejects_job_of_another_system(self):
        foreign = dataclasses.replace(job(4, 5.0, [1]), system_id=99)
        with pytest.raises(
            DatasetError, match=r"jobs log holds records of system\(s\) \[99\]"
        ):
            dataset(jobs=(*JOBS, foreign))

    def test_rejects_temperature_of_another_system(self):
        foreign = TemperatureReading(time=1.0, system_id=77, node_id=0, celsius=25.0)
        with pytest.raises(
            DatasetError, match=r"temperatures log holds records of system\(s\) \[77\]"
        ):
            dataset(temperatures=(*TEMPS, foreign))

    def test_rejects_inconsistent_layout(self):
        with pytest.raises(DatasetError):
            dataset([], num_nodes=4, layout=regular_layout(6))

    def test_failure_counts_per_node(self):
        ds = dataset([fail(1.0, node=1), fail(2.0, node=1), fail(3.0, node=3)])
        assert ds.failure_counts_per_node().tolist() == [0, 2, 0, 1]

    def test_capability_flags(self):
        ds = dataset([])
        assert not ds.has_usage
        assert not ds.has_temperature
        assert not ds.has_layout

    def test_failure_table_cached(self):
        ds = dataset([fail(1.0)])
        assert ds.failure_table is ds.failure_table


def job(job_id, submit, nodes):
    return JobRecord(
        submit_time=submit,
        system_id=20,
        job_id=job_id,
        dispatch_time=submit,
        end_time=submit + 1.0,
        user_id=job_id,
        num_processors=4,
        node_ids=tuple(nodes),
        failed_due_to_node=job_id % 2 == 1,
    )


JOBS = (job(1, 1.0, [0, 2]), job(2, 1.5, [3]), job(3, 4.0, [1, 0, 2]))
TEMPS = (
    TemperatureReading(time=1.0, system_id=20, node_id=2, celsius=30.0),
    TemperatureReading(time=2.0, system_id=20, node_id=0, celsius=45.5),
)


def lazy(failures=(), num_nodes=4, jobs=JOBS, temps=TEMPS, layout=None):
    """A dataset built from columns, as the loader and the cache build it."""
    return SystemDataset(
        system_id=20,
        group=HardwareGroup.GROUP1,
        num_nodes=num_nodes,
        processors_per_node=4,
        period=ObservationPeriod(0.0, 100.0),
        failure_table=FailureTable.from_records(failures),
        job_columns=JobColumns.from_records(jobs),
        temperature_columns=TemperatureColumns.from_records(temps),
        layout=layout,
    )


class TestLazyColumnarSystem:
    """A column-built dataset, as the loader and the cache build it."""

    def test_serves_columns_without_records(self):
        ds = lazy([fail(1.0)])
        assert ds.has_usage and ds.has_temperature
        assert ds.job_columns.job_ids.tolist() == [1, 2, 3]
        assert ds.temperature_columns.celsius.tolist() == [30.0, 45.5]
        assert len(ds.failure_table) == 1

    def test_materialises_equal_records(self):
        ds = lazy([fail(2.0, node=1, sub=HardwareSubtype.CPU), fail(1.0)])
        assert list(map(dataclasses.astuple, job_records(ds))) == list(
            map(dataclasses.astuple, JOBS)
        )
        assert temperature_records(ds) == TEMPS
        assert list(map(dataclasses.astuple, failure_records(ds))) == [
            dataclasses.astuple(fail(1.0)),
            dataclasses.astuple(fail(2.0, node=1, sub=HardwareSubtype.CPU)),
        ]
        with pytest.raises(dataclasses.FrozenInstanceError):
            ds.failure_table = FailureTable.from_records(())

    def test_runs_dataset_checks(self):
        with pytest.raises(DatasetError, match="only 4 nodes"):
            lazy([fail(1.0, node=4)])
        with pytest.raises(DatasetError, match="outside observation period"):
            lazy([fail(100.0)])
        with pytest.raises(DatasetError, match="num_nodes"):
            lazy(num_nodes=0)
        with pytest.raises(DatasetError, match="layout"):
            lazy(layout=regular_layout(8, nodes_per_rack=4))
        with pytest.raises(DatasetError, match="jobs log references node 3"):
            lazy(num_nodes=3)
        with pytest.raises(DatasetError, match="temperatures log references node 2"):
            lazy(num_nodes=2, jobs=())

    def test_sorts_failures_and_maintenance(self):
        ds = lazy([fail(5.0), fail(1.0, node=2)])
        assert ds.failure_table.times.tolist() == [1.0, 5.0]
        events = MaintenanceTable(
            times=np.array([3.0, 2.0, 3.0]),
            node_ids=np.array([1, 0, 0]),
            hardware_related=np.array([True, False, True]),
            duration_hours=np.array([1.0, 2.0, 3.0]),
        )
        ds = dataclasses.replace(ds, maintenance=events)
        assert ds.maintenance.times.tolist() == [2.0, 3.0, 3.0]
        assert ds.maintenance.node_ids.tolist() == [0, 0, 1]
        assert ds.maintenance.hardware_related.tolist() == [False, True, True]
        assert ds.maintenance.duration_hours.tolist() == [2.0, 3.0, 1.0]
        with pytest.raises(DatasetError, match="maintenance log references node 4"):
            dataclasses.replace(
                ds, maintenance=dataclasses.replace(events, node_ids=np.array([4, 0, 0]))
            )

    def test_empty_logs(self):
        ds = lazy(jobs=(), temps=())
        assert not ds.has_usage and not ds.has_temperature
        assert job_records(ds) == () and temperature_records(ds) == ()


class TestArchive:
    def test_basic(self):
        a = Archive([dataset([], system=1), dataset([], system=2)])
        assert len(a) == 2
        assert a.system_ids == (1, 2)
        assert a[1].system_id == 1

    def test_rejects_duplicates(self):
        with pytest.raises(DatasetError):
            Archive([dataset([], system=1), dataset([], system=1)])

    def test_rejects_empty(self):
        with pytest.raises(DatasetError):
            Archive([])

    def test_unknown_system(self):
        a = Archive([dataset([], system=1)])
        with pytest.raises(DatasetError):
            a[99]

    def test_group_and_totals(self):
        a = Archive([dataset([fail(1.0, system=1)], system=1)])
        assert a.total_failures() == 1
        assert a.total_failures(HardwareGroup.GROUP2) == 0
        assert len(a.group(HardwareGroup.GROUP1)) == 1
