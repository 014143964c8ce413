"""Tests for the follow-up-failure risk model."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.windows import Scope
from repro.prediction.risk import (
    SCOPE_CODES,
    RecentFailure,
    RiskModel,
    RiskModelError,
)
from repro.records.dataset import FailureTable
from repro.records.taxonomy import Category
from repro.records.timeutil import Span
from tests.prediction.reference_risk import reference_score


@pytest.fixture(scope="module")
def model(group1):
    return RiskModel.fit(group1)


class TestFit:
    def test_baseline_positive(self, model):
        assert 0.0 < model.baseline < 1.0

    def test_conditionals_cover_scopes(self, model):
        scopes = {scope for scope, _cat in model.conditional}
        assert Scope.NODE in scopes
        assert Scope.SYSTEM in scopes
        assert Scope.RACK in scopes  # group-1 systems carry layouts

    def test_rack_skipped_without_layouts(self, group2):
        m = RiskModel.fit(group2)
        assert not any(s is Scope.RACK for s, _ in m.conditional)

    def test_requires_systems(self):
        with pytest.raises(RiskModelError):
            RiskModel.fit([])


class TestScore:
    def test_no_history_is_baseline(self, model):
        assert model.score() == pytest.approx(model.baseline, rel=1e-9)

    def test_recent_failure_raises_risk(self, model):
        event = RecentFailure(
            age_days=0.0, category=Category.HARDWARE, scope=Scope.NODE
        )
        assert model.score([event]) > model.baseline

    def test_env_failure_raises_more_than_human(self, model):
        env = RecentFailure(0.0, Category.ENVIRONMENT, Scope.NODE)
        human = RecentFailure(0.0, Category.HUMAN, Scope.NODE)
        assert model.score([env]) > model.score([human])

    def test_node_scope_dominates_system_scope(self, model):
        node = RecentFailure(0.0, Category.HARDWARE, Scope.NODE)
        system = RecentFailure(0.0, Category.HARDWARE, Scope.SYSTEM)
        assert model.score([node]) > model.score([system])

    def test_old_events_decay_to_baseline(self, model):
        stale = RecentFailure(
            age_days=model.horizon.days + 1,
            category=Category.NETWORK,
            scope=Scope.NODE,
        )
        assert model.score([stale]) == pytest.approx(model.baseline, rel=1e-9)

    def test_age_reduces_contribution(self, model):
        fresh = RecentFailure(0.0, Category.NETWORK, Scope.NODE)
        old = RecentFailure(5.0, Category.NETWORK, Scope.NODE)
        assert model.score([fresh]) > model.score([old])

    def test_multiple_events_compound(self, model):
        e = RecentFailure(0.0, Category.HARDWARE, Scope.NODE)
        assert model.score([e, e]) > model.score([e])

    def test_always_a_probability(self, model):
        events = [
            RecentFailure(0.0, cat, Scope.NODE) for cat in Category
        ] * 10
        assert 0.0 < model.score(events) < 1.0

    def test_rejects_negative_age(self):
        with pytest.raises(RiskModelError):
            RecentFailure(-1.0, Category.HARDWARE, Scope.NODE)

    def test_rejects_nan_age(self):
        with pytest.raises(RiskModelError):
            RecentFailure(math.nan, Category.HARDWARE, Scope.NODE)

    def test_infinitely_old_event_is_baseline(self, model):
        ancient = RecentFailure(math.inf, Category.NETWORK, Scope.NODE)
        assert model.score([ancient]) == model.score()


class TestConstruction:
    @pytest.mark.parametrize("baseline", [math.nan, 1.5, -0.1, math.inf])
    def test_rejects_bad_baseline(self, baseline):
        with pytest.raises(RiskModelError):
            RiskModel(horizon=Span.WEEK, baseline=baseline)

    @pytest.mark.parametrize("p", [math.nan, 1.01, -1e-9])
    def test_rejects_bad_conditional(self, p):
        with pytest.raises(RiskModelError):
            RiskModel(
                horizon=Span.WEEK,
                baseline=0.1,
                conditional={(Scope.NODE, Category.HARDWARE): p},
            )

    def test_accepts_closed_unit_interval(self):
        model = RiskModel(
            horizon=Span.WEEK,
            baseline=0.0,
            conditional={(Scope.RACK, Category.NETWORK): 1.0},
        )
        assert model.score() == 0.0
        assert 0.0 < model.score([RecentFailure(0.0, Category.NETWORK, Scope.RACK)]) < 1.0


class TestScoreBatch:
    def test_rejects_mismatched_lengths(self, model):
        with pytest.raises(RiskModelError):
            model.score_batch([2], [0.0], [0], [0])

    def test_no_instances(self, model):
        scores = model.score_batch([], [], [], [])
        assert scores.dtype == float and scores.tolist() == []


def _flatten(histories):
    events = [event for history in histories for event in history]
    return (
        [len(history) for history in histories],
        [event.age_days for event in events],
        [SCOPE_CODES[event.scope] for event in events],
        [FailureTable.category_code(event.category) for event in events],
    )


@st.composite
def models(draw):
    """Models with any subset of (scope, category) probabilities fitted."""
    keys = [(scope, cat) for scope in Scope for cat in Category]
    fitted = draw(st.lists(st.sampled_from(keys), unique=True))
    probability = st.floats(0.0, 1.0, allow_nan=False)
    return RiskModel(
        horizon=draw(st.sampled_from(list(Span))),
        baseline=draw(probability),
        conditional={key: draw(probability) for key in fitted},
    )


@st.composite
def histories(draw, horizon_days, min_events=0, max_events=8):
    age = st.one_of(
        st.just(0.0),
        st.just(horizon_days),
        st.floats(0.0, 2.0 * horizon_days, allow_nan=False),
    )
    event = st.builds(
        RecentFailure,
        age,
        st.sampled_from(list(Category)),
        st.sampled_from(list(Scope)),
    )
    return draw(st.lists(
        st.lists(event, min_size=min_events, max_size=max_events), max_size=12
    ))


class TestKernelMatchesReference:
    """The batch kernel equals the per-event reference loop with ``==``."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_random_models_and_ragged_histories(self, data):
        model = data.draw(models())
        batch = data.draw(histories(model.horizon.days))
        want = [reference_score(model, history) for history in batch]
        assert model.score_batch(*_flatten(batch)).tolist() == want
        assert [model.score(history) for history in batch] == want

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_fitted_model(self, model, data):
        batch = data.draw(histories(model.horizon.days))
        want = [reference_score(model, history) for history in batch]
        assert model.score_batch(*_flatten(batch)).tolist() == want

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_every_history_empty(self, data):
        model = data.draw(models())
        batch = data.draw(histories(model.horizon.days, max_events=0))
        want = [reference_score(model, history) for history in batch]
        assert model.score_batch(*_flatten(batch)).tolist() == want

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_no_history_empty(self, data):
        model = data.draw(models())
        batch = data.draw(histories(model.horizon.days, min_events=1))
        want = [reference_score(model, history) for history in batch]
        assert model.score_batch(*_flatten(batch)).tolist() == want

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_empty_and_held_histories_mixed(self, data):
        model = data.draw(models())
        held = data.draw(histories(model.horizon.days, min_events=1))
        batch = data.draw(st.permutations(
            held + [[]] * data.draw(st.integers(1, 12))
        ))
        want = [reference_score(model, history) for history in batch]
        assert model.score_batch(*_flatten(batch)).tolist() == want


class TestRanking:
    def test_env_or_net_node_scope_on_top(self, model):
        ranked = model.rank_factors()
        top_scope, top_cat, top_factor = ranked[0]
        assert top_scope is Scope.NODE
        assert top_cat in (Category.ENVIRONMENT, Category.NETWORK)
        assert top_factor > 3.0

    def test_sorted_descending(self, model):
        factors = [f for _, _, f in model.rank_factors()]
        assert factors == sorted(factors, reverse=True)
