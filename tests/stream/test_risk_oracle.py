"""The vectorised risk refresh against the per-event reference scorer.

``reference_node_risks`` is the straightforward scorer: it builds each
candidate node's :class:`RecentFailure` history and scores it with the
per-event loop in ``tests/prediction/reference_risk.py``, which shares
no code with :meth:`RiskModel.score_batch`.  The streaming consumer
scores through that batch kernel; these tests replay the medium fixture
through both and require every per-batch risk list and every alert to be
equal with ``==`` -- bit-identical scores, not approximately equal ones.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.windows import Scope
from repro.prediction.risk import RecentFailure, RiskModel
from repro.records.taxonomy import Category, all_categories
from repro.stream import (
    AlertEngine,
    NodeRisk,
    OnlineAnalysis,
    StreamAnalysisState,
    node_risks,
    replay_archive,
    risk_model_from_state,
)
from repro.stream.state import ANY_CODE
from tests.prediction.reference_risk import reference_score


def reference_node_risks(
    state: StreamAnalysisState,
    model: RiskModel,
    system_id: int,
    limit: int | None = None,
) -> list[NodeRisk]:
    """One per-event reference score per candidate node."""
    system = state.systems[system_id]
    now = system.clock.high
    if now == -math.inf or now == math.inf:
        return []
    horizon_days = model.horizon.days
    rack_of = system.rack_of
    recent: list[tuple[float, int, Category]] = []
    for code in sorted(system.stores):
        if code == ANY_CODE:
            continue
        store = system.stores[code]
        if not len(store):
            continue
        times = store.times
        lo = int(np.searchsorted(times, now - horizon_days, side="right"))
        category = all_categories()[code]
        for t, n in zip(times[lo:].tolist(), store.nodes[lo:].tolist()):
            recent.append((t, n, category))
    if not recent:
        return []
    recent.sort(key=lambda item: (item[0], item[1], item[2].value))
    candidates = {n for _, n, _ in recent}
    if rack_of is not None:
        racks_hit = {int(rack_of[n]) for _, n, _ in recent}
        candidates.update(
            node
            for node in range(system.num_nodes)
            if int(rack_of[node]) in racks_hit
        )
    risks: list[NodeRisk] = []
    for node in sorted(candidates):
        history: list[RecentFailure] = []
        own = 0
        for t, n, category in recent:
            if n == node:
                scope = Scope.NODE
                own += 1
            elif rack_of is not None and rack_of[n] == rack_of[node]:
                scope = Scope.RACK
            else:
                scope = Scope.SYSTEM
            history.append(
                RecentFailure(
                    age_days=max(now - t, 0.0), category=category, scope=scope
                )
            )
        risks.append(
            NodeRisk(
                system_id=system_id,
                node_id=node,
                score=reference_score(model, history),
                recent_own=own,
            )
        )
    risks.sort(key=lambda r: (-r.score, r.node_id))
    return risks if limit is None else risks[:limit]


class RecordingAnalysis(OnlineAnalysis):
    """Keeps a copy of ``latest_risks`` after every batch."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.history: list[dict[int, list[NodeRisk]]] = []

    def process_batch(self, events):
        stats = super().process_batch(events)
        self.history.append(dict(self.latest_risks))
        return stats


class ReferenceAnalysis(RecordingAnalysis):
    """The consumer with its risk refresh routed through the reference."""

    def _refresh_risks(self, stats) -> None:
        if not stats.touched:
            return
        model = risk_model_from_state(self.state, self.risk_horizon)
        for system_id in sorted(stats.touched):
            self.latest_risks[system_id] = reference_node_risks(
                self.state, model, system_id, limit=self.risk_limit
            )


def _replay(archive, consumer_cls):
    consumer = consumer_cls(
        StreamAnalysisState(), alert_engine=AlertEngine.default()
    )
    # Left unsealed so the final state still has a finite "now" to score.
    replay_archive(archive, consumer, batch_size=256, finalize=False)
    return consumer


@pytest.fixture(scope="module")
def fast(medium_archive):
    return _replay(medium_archive, RecordingAnalysis)


@pytest.fixture(scope="module")
def reference(medium_archive):
    return _replay(medium_archive, ReferenceAnalysis)


class TestRiskRefreshOracle:
    def test_every_batch_scores_identically(self, fast, reference):
        assert len(fast.history) == len(reference.history) > 10
        scored = 0
        for batch, (got, want) in enumerate(
            zip(fast.history, reference.history)
        ):
            assert got == want, f"batch {batch} differs"
            scored += sum(len(risks) for risks in got.values())
        assert scored > 100

    def test_alert_sequence_identical(self, fast, reference):
        assert fast.alerts == reference.alerts
        assert any(alert.rule == "node_risk" for alert in fast.alerts)

    def test_unlimited_ranking_identical(self, fast):
        model = risk_model_from_state(fast.state)
        system_ids = sorted(fast.state.systems)
        every = node_risks(fast.state, model, system_ids)
        for system_id in system_ids:
            got = every[system_id]
            assert got == reference_node_risks(fast.state, model, system_id)
            assert got
