"""The columnar generator against its old record-building path.

``make_archive`` builds every job and temperature log as columns and
builds each system's dataset from them.  The oracle
(``reference_generation.py``) builds the records the generator used to
build; sorted as a :class:`~repro.records.dataset.SystemDataset` sorts
them, their columns must equal the generator's bit for bit, dtype
included.  The rows are shuffled before sorting, so the generator's own
row order must be the record order.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.records.environment import (
    EnvironmentRecordError,
    TemperatureColumns,
    TemperatureReading,
)
from repro.records.io import load_archive, save_archive
from repro.records.usage import JobColumns, JobRecord
from repro.simulate import archive as archive_module
from repro.simulate.archive import make_archive
from repro.simulate.cache import load_cached, store_cached
from repro.simulate.config import small_config
from repro.simulate.rng import RngStreams
from repro.simulate.usage import generate_usage

from tests.records.record_views import job_records, temperature_records

from .reference_generation import reference_jobs, reference_temperatures

CONFIG = small_config(seed=5, years=2.0, scale=0.1)


@pytest.fixture(scope="module")
def archive():
    return make_archive(CONFIG)


def assert_columns_equal(got, want) -> None:
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), f.name
        assert a.tobytes() == b.tobytes(), f.name


def shuffled(records: list, seed: int) -> list:
    order = np.random.default_rng(seed).permutation(len(records))
    return [records[i] for i in order]


class TestOracle:
    @pytest.mark.parametrize("sid", [8, 20])
    def test_jobs_match_sorted_records(self, archive, sid):
        spec = next(s for s in CONFIG.scaled_systems() if s.system_id == sid)
        usage = generate_usage(
            spec, CONFIG, RngStreams(CONFIG.seed).get(f"system-{sid}/usage")
        )
        cols = archive[sid].job_columns
        assert len(cols) == usage.n_jobs > 0
        records = reference_jobs(usage, sid, cols.failed_due_to_node)
        want = JobColumns.from_records(sorted(shuffled(records, sid)))
        assert_columns_equal(cols, want)

    def test_temperatures_match_sorted_records(self, archive):
        cols = archive[20].temperature_columns
        assert len(cols) > 0
        order = np.random.default_rng(1).permutation(len(cols))
        records = reference_temperatures(
            20, cols.times[order], cols.node_ids[order], cols.celsius[order]
        )
        want = TemperatureColumns.from_records(sorted(records))
        assert_columns_equal(cols, want)

    def test_logless_systems_have_empty_columns(self, archive):
        empty_jobs = JobColumns.from_records(())
        empty_temps = TemperatureColumns.from_records(())
        for ds in archive:
            if ds.system_id not in (8, 20):
                assert_columns_equal(ds.job_columns, empty_jobs)
            if ds.system_id != 20:
                assert_columns_equal(ds.temperature_columns, empty_temps)

    def test_materialised_records_round_trip(self, archive):
        ds = archive[20]
        assert_columns_equal(ds.job_columns, JobColumns.from_records(job_records(ds)))
        assert_columns_equal(
            ds.temperature_columns,
            TemperatureColumns.from_records(temperature_records(ds)),
        )


def test_generate_store_and_save_build_no_log_records(monkeypatch, tmp_path):
    def built(self):
        raise AssertionError(f"built a {type(self).__name__}")

    monkeypatch.setattr(JobRecord, "__post_init__", built)
    monkeypatch.setattr(TemperatureReading, "__post_init__", built)
    config = small_config(seed=2, years=1.0, scale=0.03)
    generated = make_archive(config)
    store_cached(config, generated, tmp_path / "cache")
    save_archive(generated, tmp_path / "csv")
    for loaded in (load_cached(config, tmp_path / "cache"), load_archive(tmp_path / "csv")):
        assert loaded[20].has_usage and loaded[20].has_temperature


def test_generator_raises_the_record_error_on_a_bad_sample(monkeypatch):
    real = archive_module.generate_temperatures

    def too_hot(*args):
        cols = real(*args)
        cols.celsius[0] = 500.0
        return cols

    monkeypatch.setattr(archive_module, "generate_temperatures", too_hot)
    with pytest.raises(EnvironmentRecordError, match="1 invalid temperature"):
        make_archive(small_config(seed=2, years=1.0, scale=0.03))
