"""The distribution fits and the regressions are memoized per dataset.

``fit_interarrival_model`` keeps its fits on the system's
:class:`~repro.core.cache.AnalysisCache`; ``repair_times`` keeps each
system's repair hours on that system's cache and the pooled fit on the
first system's, keyed by the pooled sample's sha256.
``fit_joint_regression`` and ``temperature_regressions`` (one entry per
target) keep their GLM fits there too, or the error of a fit that
failed.  A memo hit must serve the same fits a fresh fit would, and
only the same dataset objects may hit: a freshly loaded archive starts
cold.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import downtime, interarrival, regression, temperature
from repro.core.cache import get_cache
from repro.core.downtime import repair_times
from repro.core.interarrival import InterArrivalError, fit_interarrival_model
from repro.core.regression import fit_joint_regression
from repro.core.temperature import temperature_regressions
from repro.core.report import full_report
from repro.records.dataset import Archive, FailureTable, HardwareGroup, SystemDataset
from repro.records.failure import FailureRecord
from repro.records.io import load_archive, save_archive
from repro.records.taxonomy import Category, HardwareSubtype
from repro.records.timeutil import ObservationPeriod
from tests.records.record_views import failure_records


def count_calls(monkeypatch, calls, module, name, counter):
    """Count calls of ``module.name`` under ``calls[counter]``."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[counter] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


@pytest.fixture
def fit_calls(monkeypatch):
    """Counts of ``fit_all`` / ``best_fit`` calls made by the analyses."""
    calls = {"fit_all": 0, "best_fit": 0}
    count_calls(monkeypatch, calls, interarrival, "fit_all", "fit_all")
    count_calls(monkeypatch, calls, downtime, "best_fit", "best_fit")
    return calls


@pytest.fixture
def glm_calls(monkeypatch):
    """Counts of the GLM fits made by the Section VIII and X regressions."""
    calls = {"glm": 0}
    for module in (regression, temperature):
        for name in ("fit_poisson", "fit_negative_binomial"):
            count_calls(monkeypatch, calls, module, name, "glm")
    return calls


def system(system_id, times, hours, num_nodes=4):
    return SystemDataset.from_records(
        system_id=system_id,
        group=HardwareGroup.GROUP1,
        num_nodes=num_nodes,
        processors_per_node=4,
        period=ObservationPeriod(0.0, 400.0),
        failures=tuple(
            FailureRecord(
                time=t,
                system_id=system_id,
                node_id=i % num_nodes,
                category=Category.HARDWARE,
                downtime_hours=h,
            )
            for i, (t, h) in enumerate(zip(times, hours))
        ),
    )


def varied_system(system_id, seed, n=40):
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(0.0, 399.0, n))
    return system(system_id, times, rng.gamma(0.8, 3.0, n) + 0.1)


def tiny_copy(archive):
    """The archive's systems as new dataset objects, with cold caches."""
    return Archive(
        [dataclasses.replace(ds) for ds in archive], archive.neutron_series
    )


class TestInterArrivalMemo:
    def test_second_fit_hits(self, fit_calls):
        ds = varied_system(1, seed=1)
        first = fit_interarrival_model(ds)
        second = fit_interarrival_model(ds)
        assert fit_calls["fit_all"] == 1
        assert second.fits is first.fits
        assert second.best == first.best

    def test_nodes_have_their_own_entries(self, fit_calls):
        ds = varied_system(1, seed=2, n=120)
        whole = fit_interarrival_model(ds)
        node = fit_interarrival_model(ds, node_id=0)
        assert fit_calls["fit_all"] == 2
        assert node.n_gaps < whole.n_gaps

    def test_equal_gaps_raise_the_typed_error(self):
        # Every positive gap is 2 days: no family can be fitted, and the
        # failure must surface as InterArrivalError, not a scipy error.
        ds = system(1, [2.0 * i for i in range(30)], [1.0] * 30)
        with pytest.raises(InterArrivalError, match="zero spread"):
            fit_interarrival_model(ds)


class TestRepairFitMemo:
    def test_second_call_hits(self, fit_calls):
        systems = [varied_system(1, seed=3), varied_system(2, seed=4)]
        first = repair_times(systems, Category.HARDWARE)
        second = repair_times(systems, Category.HARDWARE)
        assert fit_calls["best_fit"] == 1
        assert second.fitted is first.fitted
        assert second == first

    def test_changed_repair_time_changes_the_pooled_key(self, fit_calls):
        a, b = varied_system(1, seed=5), varied_system(2, seed=6)
        first = repair_times([a, b])
        changed = list(failure_records(b))
        changed[0] = dataclasses.replace(
            changed[0], downtime_hours=changed[0].downtime_hours + 5.0
        )
        b2 = dataclasses.replace(b, failure_table=FailureTable.from_records(changed))
        second = repair_times([a, b2])
        assert fit_calls["best_fit"] == 2
        keys = [k for k in get_cache(a)._summaries if k[0] == "repair_fit"]
        assert len(keys) == 2 and keys[0][2] != keys[1][2]
        assert second.fitted != first.fitted

    def test_equal_repair_times_fit_nothing(self, fit_calls):
        ds = system(1, [float(i) for i in range(20)], [4.0] * 20)
        result = repair_times([ds])
        assert result.fitted is None
        assert result.mttr_hours == pytest.approx(4.0)


class TestRegressionMemo:
    def test_joint_regression_fitted_once(self, medium_archive, glm_calls):
        ds = dataclasses.replace(medium_archive[20])
        first = fit_joint_regression(ds)
        fitted = glm_calls["glm"]
        assert fitted >= 2
        assert fit_joint_regression(ds) is first
        assert glm_calls["glm"] == fitted
        assert ("joint_regression",) in get_cache(ds)._summaries
        fresh = fit_joint_regression(dataclasses.replace(ds))
        assert glm_calls["glm"] == 2 * fitted
        for name in ("poisson", "negbin", "poisson_without_prone", "significant_only"):
            assert getattr(fresh, name) == getattr(first, name), name
        assert fresh.design.names == first.design.names
        for name in ("node_ids", "X", "y"):
            a, b = getattr(fresh.design, name), getattr(first.design, name)
            assert a.tolist() == b.tolist(), name

    def test_temperature_targets_are_distinct_entries(self, medium_archive, glm_calls):
        ds = dataclasses.replace(medium_archive[20])
        targets = (Category.HARDWARE, HardwareSubtype.CPU, HardwareSubtype.MEMORY)
        first = {t: temperature_regressions(ds, target=t) for t in targets}
        assert glm_calls["glm"] == 2 * len(targets)
        again = {t: temperature_regressions(ds, target=t) for t in targets}
        assert all(again[t] is first[t] for t in targets)
        assert glm_calls["glm"] == 2 * len(targets)
        keys = [k for k in get_cache(ds)._summaries if k[0] == "temperature_regressions"]
        assert keys == [("temperature_regressions", t) for t in targets]
        for t in targets:
            assert first[t].target is t
            assert first[t] == temperature_regressions(dataclasses.replace(ds), target=t)


class TestReportMemo:
    def test_second_report_fits_nothing(self, tiny_archive, fit_calls):
        archive = tiny_copy(tiny_archive)
        first = full_report(archive)
        cold = dict(fit_calls)
        assert cold["fit_all"] > 0 and cold["best_fit"] > 0
        second = full_report(archive)
        assert fit_calls == cold
        assert second == first

    def test_failed_regression_fits_once(self, tiny_archive, glm_calls):
        """System 20's joint regression fails on the tiny archive; the
        error is memoized, so a second report refits nothing."""
        archive = tiny_copy(tiny_archive)
        first = full_report(archive)
        assert "system 20: regression skipped" in first
        cold = glm_calls["glm"]
        assert cold > 0
        assert full_report(archive) == first
        assert glm_calls["glm"] == cold

    def test_fresh_load_misses(self, tiny_archive, tmp_path, fit_calls):
        save_archive(tiny_archive, tmp_path / "archive")
        first = full_report(load_archive(tmp_path / "archive"))
        cold = dict(fit_calls)
        again = full_report(load_archive(tmp_path / "archive"))
        assert fit_calls == {name: 2 * n for name, n in cold.items()}
        assert again == first

    def test_system_with_equal_gaps_does_not_kill_the_report(self, tiny_archive):
        # The system with the most failures is fitted first; all of its
        # gaps are exactly half a day.
        n = max(len(ds.failure_table) for ds in tiny_archive) + 10
        flat = system(99, [0.5 * i for i in range(n)], [1.0] * n)
        archive = Archive(
            [*tiny_copy(tiny_archive), flat], tiny_archive.neutron_series
        )
        text = full_report(archive)
        assert "system 99: sample has zero spread" in text
