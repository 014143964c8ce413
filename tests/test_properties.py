"""Cross-module property-based tests (hypothesis).

Deeper invariants than the per-module suites: I/O round-trips over
arbitrary record combinations, risk-model monotonicity, GLM invariances,
and chart totality over arbitrary analysis outputs.
"""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.records.dataset import Archive, HardwareGroup, SystemDataset
from repro.records.failure import FailureRecord, MaintenanceRecord
from repro.records.io import load_archive, save_archive
from repro.records.taxonomy import (
    Category,
    EnvironmentSubtype,
    HardwareSubtype,
    SoftwareSubtype,
)
from repro.records.timeutil import ObservationPeriod
from tests.records import record_views

CATEGORIES = list(Category)
SUBTYPE_CHOICES = {
    Category.HARDWARE: list(HardwareSubtype),
    Category.SOFTWARE: list(SoftwareSubtype),
    Category.ENVIRONMENT: list(EnvironmentSubtype),
}


@st.composite
def failure_records(draw, system_id=1, num_nodes=6, horizon=400.0):
    time = draw(st.floats(0.0, horizon - 0.001, allow_nan=False))
    node = draw(st.integers(0, num_nodes - 1))
    cat = draw(st.sampled_from(CATEGORIES))
    sub = None
    if cat in SUBTYPE_CHOICES and draw(st.booleans()):
        sub = draw(st.sampled_from(SUBTYPE_CHOICES[cat]))
    downtime = draw(st.floats(0.0, 100.0, allow_nan=False))
    return FailureRecord(
        time=time,
        system_id=system_id,
        node_id=node,
        category=cat,
        subtype=sub,
        downtime_hours=downtime,
    )


@st.composite
def systems(draw):
    num_nodes = draw(st.integers(1, 6))
    failures = draw(
        st.lists(
            failure_records(num_nodes=num_nodes), min_size=0, max_size=30
        )
    )
    maintenance = [
        MaintenanceRecord(
            time=draw(st.floats(0.0, 399.0, allow_nan=False)),
            system_id=1,
            node_id=draw(st.integers(0, num_nodes - 1)),
            hardware_related=draw(st.booleans()),
            duration_hours=draw(st.floats(0.0, 50.0, allow_nan=False)),
        )
        for _ in range(draw(st.integers(0, 5)))
    ]
    return SystemDataset.from_records(
        system_id=1,
        group=draw(st.sampled_from(list(HardwareGroup))),
        num_nodes=num_nodes,
        processors_per_node=draw(st.sampled_from([4, 128])),
        period=ObservationPeriod(0.0, 400.0),
        failures=tuple(failures),
        maintenance=tuple(maintenance),
    )


class TestArchiveRoundTripProperty:
    @settings(max_examples=25, deadline=None)
    @given(ds=systems())
    def test_save_load_preserves_everything(self, ds, tmp_path_factory):
        root = tmp_path_factory.mktemp("prop") / "arch"
        save_archive(Archive([ds]), root)
        back = load_archive(root)[1]
        assert back.num_nodes == ds.num_nodes
        assert back.group == ds.group
        assert len(back.failure_table) == len(ds.failure_table)

        def key(f):
            # The CSV format stores times at microsecond precision, so
            # orderings between sub-microsecond ties may legally change;
            # compare the multiset of records on the rounded key.
            return (round(f.time, 6), f.node_id, f.category.value,
                    f.subtype.value if f.subtype else "",
                    round(f.downtime_hours, 3))

        for a, b in zip(
            sorted(record_views.failure_records(ds), key=key),
            sorted(record_views.failure_records(back), key=key),
        ):
            assert key(a) == key(b)
        assert len(back.maintenance) == len(ds.maintenance)
        assert back.maintenance.hardware_related.tolist() == (
            ds.maintenance.hardware_related.tolist()
        )


class TestFailureTableProperties:
    @settings(max_examples=30, deadline=None)
    @given(ds=systems())
    def test_masks_partition_by_category(self, ds):
        table = ds.failure_table
        total = sum(
            int(table.mask(category=c).sum()) for c in Category
        )
        assert total == len(table)

    @settings(max_examples=30, deadline=None)
    @given(ds=systems())
    def test_counts_conserved(self, ds):
        assert int(ds.failure_counts_per_node().sum()) == len(ds.failure_table)


class TestRiskModelProperties:
    @pytest.fixture(scope="class")
    def model(self, group1):
        from repro.prediction.risk import RiskModel

        return RiskModel.fit(group1)

    @settings(max_examples=40, deadline=None)
    @given(
        ages=st.lists(st.floats(0.0, 10.0, allow_nan=False), max_size=6),
        cats=st.lists(st.sampled_from(CATEGORIES), max_size=6),
    )
    def test_score_is_probability_and_monotone(self, model, ages, cats):
        from repro.core.windows import Scope
        from repro.prediction.risk import RecentFailure

        events = [
            RecentFailure(age, cat, Scope.NODE)
            for age, cat in zip(ages, cats)
        ]
        p = model.score(events)
        assert 0.0 < p < 1.0
        # Adding one more event can never reduce the score.
        more = events + [RecentFailure(0.0, Category.NETWORK, Scope.NODE)]
        assert model.score(more) >= p - 1e-12


class TestGLMProperties:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_poisson_scale_equivariance(self, seed):
        """Scaling a predictor divides its coefficient, same p-value."""
        from repro.stats.glm import fit_poisson

        rng = np.random.default_rng(seed)
        X = rng.normal(size=(150, 1))
        y = rng.poisson(np.exp(0.3 + 0.4 * X[:, 0]))
        a = fit_poisson(X, y, names=["x"])
        b = fit_poisson(X * 10.0, y, names=["x"])
        ca, cb = a.coefficient("x"), b.coefficient("x")
        assert ca.estimate == pytest.approx(cb.estimate * 10.0, rel=1e-4)
        assert ca.p_value == pytest.approx(cb.p_value, abs=1e-6)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_poisson_permutation_invariance(self, seed):
        """Row order never changes the fit."""
        from repro.stats.glm import fit_poisson

        rng = np.random.default_rng(seed)
        X = rng.normal(size=(120, 2))
        y = rng.poisson(np.exp(0.2 + 0.3 * X[:, 0]))
        perm = rng.permutation(120)
        a = fit_poisson(X, y)
        b = fit_poisson(X[perm], y[perm])
        assert a.coef_vector == pytest.approx(b.coef_vector, rel=1e-6)


class TestChartTotality:
    """Chart primitives accept any analysis output without raising."""

    @settings(max_examples=30, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.floats(0.0, 1e6, allow_nan=False),
                st.just(float("nan")),
            ),
            min_size=1,
            max_size=10,
        )
    )
    def test_hbar_total(self, values):
        from repro.viz.ascii import hbar_chart

        labels = [f"l{i}" for i in range(len(values))]
        out = hbar_chart(labels, values)
        assert len(out.splitlines()) == len(values)

    @settings(max_examples=30, deadline=None)
    @given(
        pts=st.lists(
            st.tuples(
                st.floats(-1e6, 1e6, allow_nan=False),
                st.floats(-1e6, 1e6, allow_nan=False),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_scatter_total(self, pts):
        from repro.viz.ascii import scatter_plot

        out = scatter_plot([p[0] for p in pts], [p[1] for p in pts])
        assert "|" in out
