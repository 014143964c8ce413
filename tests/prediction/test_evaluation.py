"""Tests for held-out risk-model evaluation."""

import pytest

from repro.prediction.evaluation import (
    EvaluationError,
    evaluate_risk_model,
    truncate_system,
)
from repro.records.timeutil import Span


class TestTruncate:
    def test_restricts_failures_and_period(self, medium_archive):
        ds = medium_archive[18]
        mid = ds.period.start + ds.period.length / 2
        head = truncate_system(ds, ds.period.start, mid)
        assert head.period.end == mid
        assert (head.failure_table.times < mid).all()
        assert len(head.job_columns) == len(head.temperature_columns) == 0
        assert head.num_nodes == ds.num_nodes

    def test_tail_window(self, medium_archive):
        ds = medium_archive[18]
        mid = ds.period.start + ds.period.length / 2
        tail = truncate_system(ds, mid, ds.period.end)
        assert (tail.failure_table.times >= mid).all()

    def test_halves_partition_failures(self, medium_archive):
        ds = medium_archive[18]
        mid = ds.period.start + ds.period.length / 2
        head = truncate_system(ds, ds.period.start, mid)
        tail = truncate_system(ds, mid, ds.period.end)
        assert len(head.failure_table) + len(tail.failure_table) == len(
            ds.failure_table
        )

    def test_rejects_bad_bounds(self, medium_archive):
        ds = medium_archive[18]
        with pytest.raises(EvaluationError):
            truncate_system(ds, -5.0, 10.0)
        with pytest.raises(EvaluationError):
            truncate_system(ds, 10.0, 10.0)


class TestEvaluateRiskModel:
    @pytest.fixture(scope="class")
    def evaluation(self, group1):
        return evaluate_risk_model(group1)

    def test_model_beats_constant_baseline(self, evaluation):
        """The paper's claim, out of sample: recent failures predict."""
        assert evaluation.skill > 0.0
        assert evaluation.brier_model < evaluation.brier_baseline

    def test_top_decile_lift(self, evaluation):
        assert evaluation.lift_top_decile > 1.5
        assert 0.0 < evaluation.recall_top_decile <= 1.0

    def test_instance_accounting(self, evaluation):
        assert evaluation.n_instances > 1000
        assert 0.0 < evaluation.base_rate < 0.5

    def test_monthly_horizon_also_works(self, group1):
        ev = evaluate_risk_model(group1, horizon=Span.MONTH)
        assert ev.skill > 0.0

    def test_rejects_empty(self):
        with pytest.raises(EvaluationError):
            evaluate_risk_model([])

    def test_rejects_bad_fraction(self, group1):
        with pytest.raises(EvaluationError):
            evaluate_risk_model(group1, train_fraction=0.95)
