"""The held-out evaluation and its training views against references.

``reference_evaluation`` is the straightforward evaluation: one
:class:`RecentFailure` history per (node, test window), each scored
with the per-event loop in ``reference_risk.py``, fitted on training
splits built by ``reference_truncate`` (the record filter plus
``SystemDataset.from_records``).  The package slices each training split out
of its system's failure table, memoizes it, finds every window's rows
with one search per system and scores every window of a system in one
call to the batch kernel; each step must give values equal with ``==``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import get_cache
from repro.core.windows import Scope
from repro.prediction.evaluation import (
    EvaluationError,
    RiskEvaluation,
    _node_events,
    _window_rows,
    evaluate_risk_model,
    truncate_system,
)
from repro.prediction.risk import RecentFailure, RiskModel
from repro.records.dataset import FailureTable, HardwareGroup, SystemDataset
from repro.records.failure import FailureRecord, MaintenanceRecord
from repro.records.taxonomy import Category, HardwareSubtype, all_categories
from repro.records.timeutil import ObservationPeriod, Span
from repro.simulate.archive import make_archive
from repro.simulate.config import small_config
from tests.prediction.reference_risk import reference_score
from tests.records.record_views import (
    failure_records,
    job_records,
    maintenance_records,
    temperature_records,
)

def reference_truncate(ds, start, end):
    """``ds`` with only its failures in ``[start, end)``: the filtered
    records through ``SystemDataset.from_records`` (and so re-sorted
    and re-checked)."""
    if not (ds.period.start <= start < end <= ds.period.end):
        raise EvaluationError("bounds outside the observation period")
    return SystemDataset.from_records(
        system_id=ds.system_id,
        group=ds.group,
        num_nodes=ds.num_nodes,
        processors_per_node=ds.processors_per_node,
        period=ObservationPeriod(start, end),
        failures=[f for f in failure_records(ds) if start <= f.time < end],
        layout=ds.layout,
    )


def reference_top_decile(p, y):
    """The positives in the top decile, ties at its lowest score shared
    out evenly: every instance above the k-th highest score counts in
    full, each of those tied at it with weight ``(k - n_above) / n_tied``."""
    k = max(1, len(p) // 10)
    kth = sorted(p, reverse=True)[k - 1]
    above = [label for score, label in zip(p, y) if score > kth]
    tied = [label for score, label in zip(p, y) if score == kth]
    return k, float(sum(above)) + (k - len(above)) / len(tied) * float(sum(tied))


def reference_window_rows(ds, edges):
    """The per-node searches: node ``k``'s rows before each edge."""
    times, _, bounds = _node_events(ds)
    return np.stack(
        [
            bounds[k] + np.searchsorted(times[bounds[k]:bounds[k + 1]], edges)
            for k in range(ds.num_nodes)
        ],
        axis=1,
    ).reshape(edges.shape[0], -1)


def cold_copies(systems):
    """The systems as new dataset objects, with empty analysis caches."""
    return [dataclasses.replace(ds) for ds in systems]


def reference_evaluation(systems, horizon, train_fraction) -> RiskEvaluation:
    """Score each (node, window) tile from its own history, one at a time."""
    cats = list(all_categories())
    model = RiskModel.fit(
        [
            reference_truncate(
                ds,
                ds.period.start,
                ds.period.start + train_fraction * ds.period.length,
            )
            for ds in systems
        ],
        horizon=horizon,
        scopes=(Scope.NODE,),
    )
    predictions: list[float] = []
    labels: list[int] = []
    h_days = horizon.days
    for ds in systems:
        test_start = ds.period.start + train_fraction * ds.period.length
        if ds.period.end - test_start < 2 * h_days:
            continue
        table = ds.failure_table
        n_windows = int((ds.period.end - test_start - h_days) // h_days)
        starts = test_start + h_days * np.arange(n_windows)
        for node in range(ds.num_nodes):
            mask = table.node_ids == node
            times, cat_codes = table.times[mask], table.category_codes[mask]
            lo = np.searchsorted(times, starts - h_days, side="left")
            mid = np.searchsorted(times, starts, side="left")
            hi = np.searchsorted(times, starts + h_days, side="left")
            for w in range(n_windows):
                recent = [
                    RecentFailure(
                        age_days=float(starts[w] - times[i]),
                        category=cats[int(cat_codes[i])],
                        scope=Scope.NODE,
                    )
                    for i in range(int(lo[w]), int(mid[w]))
                ]
                predictions.append(reference_score(model, recent))
                labels.append(int(hi[w] > mid[w]))
    p = np.asarray(predictions)
    y = np.asarray(labels, dtype=float)
    base_rate = float(y.mean())
    brier_model = float(((p - y) ** 2).mean())
    brier_baseline = float(((model.baseline - y) ** 2).mean())
    k, positives = reference_top_decile(p.tolist(), y.tolist())
    return RiskEvaluation(
        horizon=horizon,
        n_instances=int(p.size),
        base_rate=base_rate,
        brier_model=brier_model,
        brier_baseline=brier_baseline,
        skill=1.0 - brier_model / brier_baseline,
        lift_top_decile=positives / k / base_rate,
        recall_top_decile=positives / float(y.sum()),
    )


@pytest.mark.parametrize("train_fraction", [0.5, 0.7])
@pytest.mark.parametrize("horizon", [Span.WEEK, Span.MONTH])
def test_batch_evaluation_equals_reference(medium_archive, horizon, train_fraction):
    systems = list(medium_archive)
    got = evaluate_risk_model(systems, horizon=horizon, train_fraction=train_fraction)
    want = reference_evaluation(systems, horizon, train_fraction)
    assert got.n_instances > 1000
    assert got == want


def test_top_decile_does_not_depend_on_instance_order(medium_archive):
    """Most top-decile slots go to instances tied at one score; how the
    ties are broken must not move lift or recall."""
    systems = cold_copies(medium_archive)
    forward = evaluate_risk_model(systems)
    backward = evaluate_risk_model(systems[::-1])
    assert backward.lift_top_decile == forward.lift_top_decile
    assert backward.recall_top_decile == forward.recall_top_decile


def assert_same_view(got, want):
    """Every scalar field, every record of every log and every failure
    table column equal."""
    assert type(got) is type(want)
    for name in (
        "system_id", "group", "num_nodes", "processors_per_node", "period", "layout",
    ):
        assert getattr(got, name) == getattr(want, name), name
    for records in (failure_records, maintenance_records, job_records, temperature_records):
        assert [dataclasses.astuple(r) for r in records(got)] == [
            dataclasses.astuple(r) for r in records(want)
        ], records.__name__
    for f in dataclasses.fields(FailureTable):
        a, b = getattr(got.failure_table, f.name), getattr(want.failure_table, f.name)
        assert a.dtype == b.dtype and a.tolist() == b.tolist(), f.name


#: A few distinct times, so that failures share times and bounds land on them.
TIMES = st.sampled_from([0.0, 0.5, 1.0, 3.25, 7.0, 7.0 + 2**-40, 19.5, 29.0])


@st.composite
def systems(draw):
    num_nodes = draw(st.integers(1, 4))
    failures = tuple(
        FailureRecord(
            time=draw(TIMES),
            system_id=5,
            node_id=draw(st.integers(0, num_nodes - 1)),
            category=category,
            subtype=HardwareSubtype.CPU if category is Category.HARDWARE else None,
            downtime_hours=draw(st.sampled_from([0.0, 1.5])),
        )
        for category in draw(
            st.lists(st.sampled_from(list(all_categories())), max_size=25)
        )
    )
    maintenance = (MaintenanceRecord(time=2.0, system_id=5, node_id=0),)
    return SystemDataset.from_records(
        system_id=5,
        group=HardwareGroup.GROUP2,
        num_nodes=num_nodes,
        processors_per_node=4,
        period=ObservationPeriod(0.0, 30.0),
        failures=failures,
        maintenance=maintenance,
    )


@st.composite
def bounds(draw, ds):
    """``start < end`` inside the period: on its ends, on failure times
    or between them."""
    points = sorted({0.0, 30.0, 2.0, 12.5, *ds.failure_table.times.tolist()})
    start, end = draw(
        st.lists(st.sampled_from(points), min_size=2, max_size=2, unique=True)
    )
    return min(start, end), max(start, end)


class TestTrainingView:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_view_equals_replace_oracle(self, data):
        ds = data.draw(systems())
        start, end = data.draw(bounds(ds))
        assert_same_view(truncate_system(ds, start, end), reference_truncate(ds, start, end))

    def test_empty_and_full_views(self):
        ds = SystemDataset.from_records(
            system_id=5,
            group=HardwareGroup.GROUP1,
            num_nodes=2,
            processors_per_node=4,
            period=ObservationPeriod(0.0, 30.0),
            failures=(
                FailureRecord(time=4.0, system_id=5, node_id=1, category=Category.HUMAN),
            ),
        )
        for start, end in [(0.0, 30.0), (0.0, 4.0), (4.5, 30.0), (4.0, 4.5)]:
            got = truncate_system(ds, start, end)
            assert_same_view(got, reference_truncate(ds, start, end))
        assert len(truncate_system(ds, 0.0, 4.0).failure_table) == 0

    def test_column_backed_systems(self):
        """Generated systems keep their logs as columns; their views
        hold no job or temperature rows and equal the oracle's."""
        archive = make_archive(small_config(seed=3, years=1.0, scale=0.03))
        splits = {}
        for ds in archive:
            split = ds.period.start + 0.4 * ds.period.length
            splits[ds.system_id] = [(ds.period.start, split), (split, ds.period.end)]
            views = [truncate_system(ds, start, end) for start, end in splits[ds.system_id]]
            assert all(len(view.job_columns) == 0 for view in views)
            assert all(len(view.temperature_columns) == 0 for view in views)
        for ds in archive:
            for start, end in splits[ds.system_id]:
                assert_same_view(
                    truncate_system(ds, start, end), reference_truncate(ds, start, end)
                )

    def test_view_is_memoized(self, tiny_archive):
        [ds] = cold_copies([tiny_archive[18]])
        mid = ds.period.start + ds.period.length / 2
        view = truncate_system(ds, ds.period.start, mid)
        assert truncate_system(ds, ds.period.start, mid) is view
        assert truncate_system(ds, mid, ds.period.end) is not view

    def test_bad_bounds_raise_on_a_warm_cache(self, tiny_archive):
        [ds] = cold_copies([tiny_archive[18]])
        evaluate_risk_model([ds])
        period = ds.period
        for start, end in [
            (period.start - 1.0, period.end),
            (period.start, period.end + 1.0),
            (10.0, 10.0),
            (float("nan"), period.end),
        ]:
            with pytest.raises(EvaluationError):
                truncate_system(ds, start, end)

    def test_second_evaluation_misses_nothing(self, medium_archive):
        """A repeated evaluation fits from the memoized training views'
        warm caches: no miss on any of them."""
        systems = cold_copies(medium_archive)
        first = evaluate_risk_model(systems)
        views = [
            truncate_system(ds, ds.period.start, ds.period.start + 0.5 * ds.period.length)
            for ds in systems
        ]
        before = [(get_cache(v).hits, get_cache(v).misses) for v in views]
        assert all(misses > 0 for _, misses in before)
        assert evaluate_risk_model(systems) == first
        after = [(get_cache(v).hits, get_cache(v).misses) for v in views]
        assert [m for _, m in after] == [m for _, m in before]
        assert all(a > b for (a, _), (b, _) in zip(after, before))


class TestWindowRows:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equals_per_node_search(self, data):
        ds = data.draw(systems())
        edges = np.asarray(
            data.draw(
                st.lists(
                    st.lists(
                        st.one_of(TIMES, st.floats(-1.0, 31.0)), min_size=4, max_size=4
                    ),
                    min_size=3,
                    max_size=3,
                )
            )
        )
        got = _window_rows(ds, _node_events(ds)[2], edges)
        want = reference_window_rows(ds, edges)
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("horizon", [Span.WEEK, Span.MONTH])
    def test_evaluation_windows(self, medium_archive, horizon):
        h = horizon.days
        for ds in medium_archive:
            test_start = ds.period.start + 0.5 * ds.period.length
            starts = test_start + h * np.arange(int((ds.period.end - test_start - h) // h))
            edges = np.stack((starts - h, starts, starts + h))
            got = _window_rows(ds, _node_events(ds)[2], edges)
            assert got.tolist() == reference_window_rows(ds, edges).tolist()
