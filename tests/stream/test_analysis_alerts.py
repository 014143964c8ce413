"""Online risk model vs the batch fit, and alert rule behaviour."""

from __future__ import annotations

import dataclasses
from collections import Counter
from unittest import mock

import pytest

from repro import telemetry

from repro.prediction.risk import RiskModel
from repro.records.taxonomy import Category
from repro.records.timeutil import ObservationPeriod, Span
from repro.simulate.archive import make_archive
from repro.simulate.config import small_config
from repro.stream import (
    Alert,
    AlertEngine,
    AlertError,
    AlertRule,
    CategoryBurstRule,
    NodeRiskRule,
    OnlineAnalysis,
    StreamAnalysisConfig,
    StreamAnalysisState,
    StreamEvent,
    node_risks,
    replay_archive,
    risk_model_from_state,
)
from repro.stream import analysis as stream_analysis


class TestRiskModelFromState:
    def test_matches_batch_fit_exactly(self, medium_archive):
        consumer = OnlineAnalysis(StreamAnalysisState())
        replay_archive(medium_archive, consumer, batch_size=512)
        online = risk_model_from_state(consumer.state, horizon=Span.WEEK)
        batch = RiskModel.fit(list(medium_archive), horizon=Span.WEEK)
        assert online.baseline == batch.baseline
        assert set(online.conditional) == set(batch.conditional)
        for key in batch.conditional:
            assert online.conditional[key] == batch.conditional[key], key

    def test_scores_identical_histories_identically(self, medium_archive):
        consumer = OnlineAnalysis(StreamAnalysisState())
        replay_archive(medium_archive, consumer, batch_size=512)
        online = risk_model_from_state(consumer.state)
        batch = RiskModel.fit(list(medium_archive))
        from repro.prediction.risk import RecentFailure
        from repro.core.windows import Scope

        history = [
            RecentFailure(0.5, Category.HARDWARE, Scope.NODE),
            RecentFailure(2.0, Category.ENVIRONMENT, Scope.RACK),
        ]
        assert online.score(history) == batch.score(history)


def _burst_events(n: int, t0: float = 10.0) -> list[StreamEvent]:
    return [
        StreamEvent(
            time=t0 + i * 0.01,
            system_id=0,
            node_id=i % 4,
            event_id=f"b{i}",
            category=Category.NETWORK,
        )
        for i in range(n)
    ]


def _fresh_consumer(engine: AlertEngine) -> OnlineAnalysis:
    state = StreamAnalysisState(StreamAnalysisConfig())
    state.register_system(0, 4, ObservationPeriod(0.0, 1000.0), None)
    return OnlineAnalysis(state, alert_engine=engine)


class TestCategoryBurstRule:
    def test_fires_on_trailing_window_spike(self):
        consumer = _fresh_consumer(
            AlertEngine([CategoryBurstRule(threshold=5, window_days=1.0)])
        )
        consumer.process_batch(_burst_events(6))
        assert len(consumer.alerts) == 1
        alert = consumer.alerts[0]
        assert alert.rule == "category_burst"
        assert alert.value >= 5
        assert alert.node_id is None

    def test_below_threshold_is_silent(self):
        consumer = _fresh_consumer(
            AlertEngine([CategoryBurstRule(threshold=5, window_days=1.0)])
        )
        consumer.process_batch(_burst_events(4))
        assert consumer.alerts == []

    def test_at_most_one_alert_per_window(self):
        consumer = _fresh_consumer(
            AlertEngine([CategoryBurstRule(threshold=5, window_days=1.0)])
        )
        consumer.process_batch(_burst_events(6, t0=10.0))
        consumer.process_batch(_burst_events(6, t0=10.2))
        assert len(consumer.alerts) == 1  # second burst inside the window
        consumer.process_batch(_burst_events(6, t0=12.0))
        assert len(consumer.alerts) == 2  # next window may fire again

    def test_category_filter(self):
        consumer = _fresh_consumer(
            AlertEngine(
                [
                    CategoryBurstRule(
                        threshold=5,
                        window_days=1.0,
                        category=Category.HARDWARE,
                    )
                ]
            )
        )
        consumer.process_batch(_burst_events(8))  # NETWORK events
        assert consumer.alerts == []

    def test_alert_timestamps_are_stream_time(self):
        consumer = _fresh_consumer(
            AlertEngine([CategoryBurstRule(threshold=3, window_days=1.0)])
        )
        consumer.process_batch(_burst_events(4, t0=42.0))
        assert consumer.alerts[0].stream_time == pytest.approx(42.03)


class TestNodeRiskRule:
    @staticmethod
    def _net(t: float, node: int, eid: str) -> StreamEvent:
        return StreamEvent(
            time=t,
            system_id=0,
            node_id=node,
            event_id=eid,
            category=Category.NETWORK,
        )

    def test_fires_dedups_and_rearms(self):
        # Warm up with tight same-node pairs so the streaming NODE
        # conditional resolves to a high probability (0.5), then drive
        # one node through elevated -> still elevated -> quiet ->
        # elevated again and watch the alert fire exactly twice.
        consumer = _fresh_consumer(
            AlertEngine([NodeRiskRule(threshold=0.3)])
        )
        ev = self._net
        consumer.process_batch(
            [
                ev(0.0, 0, "w0"), ev(0.5, 0, "w1"),
                ev(10.0, 1, "w2"), ev(10.5, 1, "w3"),
                ev(20.0, 2, "w4"), ev(20.5, 2, "w5"),
                ev(40.0, 3, "advance"),  # advances the watermark so
                # every warm-up window resolves
            ]
        )

        def node0_alerts():
            return [
                a
                for a in consumer.alerts
                if a.rule == "node_risk" and a.node_id == 0
            ]

        consumer.process_batch([ev(50.0, 0, "burst1")])
        assert len(node0_alerts()) == 1
        assert node0_alerts()[0].value >= 0.3
        # Node 0 is still elevated in the next batch, but the alert
        # stays armed-off until its score drops below the threshold.
        consumer.process_batch([ev(50.5, 1, "other")])
        assert len(node0_alerts()) == 1
        # A quiet stretch ages node 0 out of the horizon (re-arms it)...
        consumer.process_batch([ev(70.0, 3, "quiet")])
        assert len(node0_alerts()) == 1
        # ...so the next elevation fires again.
        consumer.process_batch([ev(71.0, 0, "burst2")])
        assert len(node0_alerts()) == 2

    def test_invalid_threshold_rejected(self):
        with pytest.raises(AlertError):
            NodeRiskRule(threshold=1.5)
        with pytest.raises(AlertError):
            AlertEngine([])


class ReferenceNodeRiskRule(AlertRule):
    """The node-risk rule as it first was: one armed flag per (system,
    node) key, re-armed by a scan over every key ever scored."""

    name = "node_risk_reference"

    def __init__(self, threshold: float) -> None:
        self.threshold = threshold
        self._armed: dict[tuple[int, int], bool] = {}

    def evaluate(self, analysis, stats) -> list[Alert]:
        fired: list[Alert] = []
        for system_id in sorted(stats.touched):
            risks = analysis.latest_risks.get(system_id, ())
            system = analysis.state.systems[system_id]
            now = system.clock.high
            over = set()
            for risk in risks:
                key = (system_id, risk.node_id)
                if risk.score >= self.threshold:
                    over.add(key)
                    if self._armed.get(key, True):
                        self._armed[key] = False
                        fired.append(
                            Alert(
                                rule=self.name,
                                system_id=system_id,
                                node_id=risk.node_id,
                                stream_time=now,
                                value=risk.score,
                                threshold=self.threshold,
                                message=(
                                    f"node {risk.node_id} of system "
                                    f"{system_id} at risk "
                                    f"{risk.score:.3f} >= "
                                    f"{self.threshold:.3f} "
                                    f"({risk.recent_own} recent own "
                                    "failures)"
                                ),
                            )
                        )
            for key in list(self._armed):
                if key[0] == system_id and key not in over:
                    self._armed[key] = True
        return fired


class TestNodeRiskRuleReference:
    """The per-system over-threshold sets fire exactly the alerts of the
    armed-flag rule they replaced, on a replayed archive."""

    THRESHOLD = 0.05

    @pytest.fixture(scope="class")
    def archive(self):
        return make_archive(small_config(seed=3, years=2.0, scale=0.05))

    @pytest.mark.parametrize("batch_size", [1, 256])
    def test_same_alerts_as_reference(self, archive, batch_size):
        engine = AlertEngine(
            [NodeRiskRule(self.THRESHOLD), ReferenceNodeRiskRule(self.THRESHOLD)]
        )
        consumer = OnlineAnalysis(StreamAnalysisState(), alert_engine=engine)
        replay_archive(archive, consumer, batch_size=batch_size, finalize=False)
        got = [a for a in consumer.alerts if a.rule == NodeRiskRule.name]
        want = [
            dataclasses.replace(a, rule=NodeRiskRule.name)
            for a in consumer.alerts
            if a.rule == ReferenceNodeRiskRule.name
        ]
        assert got == want
        # The threshold is low enough that some node fires, drops below
        # it and fires again.
        fired = Counter((a.system_id, a.node_id) for a in got)
        assert max(fired.values()) > 1


class TestNodeRisks:
    @pytest.fixture()
    def live_consumer(self, tiny_archive):
        # finalize=False: node risks need a finite stream "now", and a
        # sealed state has no trailing window left.
        consumer = OnlineAnalysis(StreamAnalysisState())
        replay_archive(
            tiny_archive, consumer, batch_size=128, finalize=False
        )
        return consumer

    def _risky_system(self, consumer):
        for system_id in sorted(consumer.state.systems):
            model = consumer.risk_model()
            risks = node_risks(consumer.state, model, [system_id])[system_id]
            if risks:
                return system_id, model, risks
        pytest.fail("no system had recent failures to score")

    def test_scores_rank_recent_failures_first(self, live_consumer):
        _, _, risks = self._risky_system(live_consumer)
        scores = [r.score for r in risks]
        assert scores == sorted(scores, reverse=True)
        assert all(0.0 < r.score < 1.0 for r in risks)

    def test_limit_caps_results(self, live_consumer):
        system_id, model, risks = self._risky_system(live_consumer)
        capped = node_risks(
            live_consumer.state, model, [system_id], limit=1
        )[system_id]
        assert len(capped) == 1
        assert capped[0] == risks[0]

    def test_sealed_state_has_no_now(self, tiny_archive):
        consumer = OnlineAnalysis(StreamAnalysisState())
        replay_archive(tiny_archive, consumer, batch_size=128)
        model = consumer.risk_model()
        system_id = sorted(consumer.state.systems)[0]
        assert node_risks(consumer.state, model, [system_id]) == {system_id: []}


class TestBatchLatency:
    def test_metrics_on_observes_each_batch(self):
        consumer = _fresh_consumer(AlertEngine.default())
        telemetry.reset_metrics()
        previous = telemetry.set_metrics_enabled(True)
        try:
            consumer.process_batch(_burst_events(4))
            consumer.process_batch(_burst_events(4, t0=20.0))
            summary = telemetry.metrics_snapshot()["histograms"]["stream.batch_s"]
        finally:
            telemetry.set_metrics_enabled(previous)
            telemetry.reset_metrics()
        assert summary["count"] == 2
        assert summary["min"] > 0

    def test_metrics_off_reads_no_clock(self):
        consumer = _fresh_consumer(AlertEngine.default())
        with telemetry.disabled(), mock.patch.object(
            stream_analysis.time, "perf_counter", side_effect=AssertionError
        ):
            consumer.process_batch(_burst_events(4))
        assert "stream.batch_s" not in telemetry.metrics_snapshot().get(
            "histograms", {}
        )
