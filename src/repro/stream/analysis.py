"""Online conditional probabilities and per-node risk scoring.

:class:`OnlineAnalysis` is the consumer the ingest pipeline drives: each
micro-batch updates the incremental counters
(:class:`~repro.stream.state.StreamAnalysisState`), refreshes a
:class:`~repro.prediction.risk.RiskModel` fitted from the *streaming*
counts, re-scores the nodes of every touched system, evaluates alert
rules and (optionally) writes periodic checkpoints.

The risk model is the same model :meth:`RiskModel.fit` produces from a
batch archive -- its baseline and conditional probabilities come from
the identical pooled counts, just accumulated online -- and scores go
through its batch kernel, so a fully replayed archive yields the same
scores the batch fit would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.windows import Counts, Scope, ZERO_COUNTS
from ..prediction.risk import SCOPE_CODES, RiskModel
from ..records.taxonomy import Category, all_categories
from ..records.timeutil import Span
from ..telemetry import counter_add, gauge_set, span as tel_span
from .events import StreamEvent
from .state import (
    ANY_CODE,
    BatchStats,
    Checkpointer,
    StreamAnalysisState,
)


class StreamAnalysisError(ValueError):
    """Raised on invalid analysis queries."""


@dataclass(frozen=True)
class NodeRisk:
    """One node's refreshed risk score.

    Attributes:
        system_id / node_id: which node.
        score: P(the node fails within the model horizon).
        recent_own: its own failures inside the trailing horizon.
    """

    system_id: int
    node_id: int
    score: float
    recent_own: int


def pooled_conditional(
    state: StreamAnalysisState,
    scope: Scope,
    trigger: Category | None,
    target: Category | None,
    span: Span,
) -> Counts:
    """Conditional counts pooled across systems (streaming counterpart
    of :func:`repro.core.correlations.pooled_conditional`).

    Systems without a layout are skipped at RACK scope, matching the
    batch helper.
    """
    total = ZERO_COUNTS
    for system_id in sorted(state.systems):
        system = state.systems[system_id]
        if scope is Scope.RACK and system.rack_of is None:
            continue
        total = total + system.counts(scope, trigger, target, span)
    return total


def pooled_baseline(
    state: StreamAnalysisState, target: Category | None, span: Span
) -> Counts:
    """Baseline counts pooled across systems."""
    total = ZERO_COUNTS
    for system_id in sorted(state.systems):
        total = total + state.systems[system_id].baseline(target, span)
    return total


def risk_model_from_state(
    state: StreamAnalysisState, horizon: Span = Span.WEEK
) -> RiskModel:
    """Fit a :class:`RiskModel` from the current streaming counts.

    Mirrors :meth:`RiskModel.fit` cell for cell: the baseline is the
    pooled any-failure baseline at the horizon, and each (scope,
    trigger category) probability is the pooled conditional estimate
    when defined.
    """
    if horizon not in state.config.spans:
        raise StreamAnalysisError(
            f"horizon {horizon} is not tracked; configured spans are "
            f"{[s.value for s in state.config.spans]}"
        )
    if not state.systems:
        raise StreamAnalysisError("no systems registered")
    any_rack = any(
        state.systems[sid].rack_of is not None for sid in state.systems
    )
    baseline = pooled_baseline(state, None, horizon).estimate().value
    conditional: dict[tuple[Scope, Category], float] = {}
    for scope in (Scope.NODE, Scope.RACK, Scope.SYSTEM):
        if scope is Scope.RACK and not any_rack:
            continue
        for category in all_categories():
            if category not in state.config.selections:
                continue
            if scope is not Scope.NODE and None not in state.config.wide_targets:
                continue  # pragma: no cover - default config always tracks ANY
            counts = pooled_conditional(state, scope, category, None, horizon)
            estimate = counts.estimate()
            if estimate.defined:
                conditional[(scope, category)] = estimate.value
    return RiskModel(horizon=horizon, baseline=baseline, conditional=conditional)


#: Category code -> rank of the category's name (the history sort key).
_NAME_RANK = np.argsort(np.argsort([c.value for c in all_categories()]))


def node_risks(
    state: StreamAnalysisState,
    model: RiskModel,
    system_id: int,
    limit: int | None = None,
) -> list[NodeRisk]:
    """Score nodes of one system against the trailing horizon window.

    "Now" is the system's stream high-water mark (never the wall
    clock), and the recent-failure history feeding the scorer is read
    from the streaming per-category stores: a node's own events score at
    NODE scope, its rack peers' events at RACK scope and the rest of
    the system at SYSTEM scope.  Only nodes with at least one own or
    rack event are scored -- every other node shares the same ambient
    (system-events-only) score, which carries no ranking information.
    Results sort by descending score, then node id; ``limit`` keeps the
    per-batch refresh bounded.  All candidates score in one
    :meth:`RiskModel.score_batch` call, histories in (time, node,
    category name) order.
    """
    try:
        system = state.systems[system_id]
    except KeyError as exc:
        raise StreamAnalysisError(f"unknown system {system_id}") from exc
    now = system.clock.high
    if now == -math.inf or now == math.inf:
        return []
    horizon_days = model.horizon.days
    rack_of = system.rack_of
    # Recent (time, node, category) events straight from the streaming
    # per-category stores; events without a category (never tracked
    # beyond the ANY store) carry no risk information and are skipped.
    times, nodes, codes = [], [], []
    for code in sorted(system.stores):
        if code == ANY_CODE:
            continue
        store = system.stores[code]
        lo = int(np.searchsorted(store.times, now - horizon_days, side="right"))
        if lo < store.times.size:
            times.append(store.times[lo:])
            nodes.append(store.nodes[lo:])
            codes.append(np.full(store.times.size - lo, code))
    if not times:
        return []
    t = np.concatenate(times)
    n = np.concatenate(nodes)
    c = np.concatenate(codes)
    # Hazards accumulate in (time, node, category name) order.
    order = np.lexsort((_NAME_RANK[c], n, t))
    t, n, c = t[order], n[order], c[order]
    # Score the nodes the recent history can differentiate: nodes with
    # their own events plus their rack peers.
    if rack_of is None:
        candidates = np.unique(n)
    else:
        candidates = np.flatnonzero(np.isin(rack_of, rack_of[n]))
    # Each candidate's history: every recent event, scoped relative to it.
    own = candidates[:, None] == n
    scopes = np.where(own, SCOPE_CODES[Scope.NODE], SCOPE_CODES[Scope.SYSTEM])
    if rack_of is not None:
        scopes[~own & (rack_of[candidates][:, None] == rack_of[n])] = SCOPE_CODES[Scope.RACK]
    scores = model.score_batch(
        np.full(candidates.size, t.size),
        np.tile(np.maximum(now - t, 0.0), candidates.size),
        scopes.ravel(),
        np.tile(c, candidates.size),
    )
    risks = [
        NodeRisk(
            system_id=system_id, node_id=node, score=score, recent_own=recent_own
        )
        for node, score, recent_own in zip(
            candidates.tolist(), scores.tolist(), own.sum(axis=1).tolist()
        )
    ]
    risks.sort(key=lambda r: (-r.score, r.node_id))
    return risks if limit is None else risks[:limit]


class OnlineAnalysis:
    """The pipeline consumer: state + risk refresh + alerts + checkpoints.

    Attributes:
        state: the incremental counters being maintained.
        totals: pooled dispositions over every processed batch.
        latest_risks: per-system node risks from the last refresh.
        alerts: every alert fired so far (chronological).
    """

    def __init__(
        self,
        state: StreamAnalysisState,
        alert_engine=None,
        risk_horizon: Span = Span.WEEK,
        checkpointer: Checkpointer | None = None,
        risk_limit: int = 32,
    ) -> None:
        if risk_horizon not in state.config.spans:
            raise StreamAnalysisError(
                f"risk horizon {risk_horizon} is not a tracked span"
            )
        self.state = state
        self.alert_engine = alert_engine
        self.risk_horizon = risk_horizon
        self.checkpointer = checkpointer
        self.risk_limit = risk_limit
        self.totals = BatchStats()
        self.latest_risks: dict[int, list[NodeRisk]] = {}
        self.alerts: list = []
        self.batches = 0

    def process_batch(self, events: list[StreamEvent]) -> BatchStats:
        """Absorb one micro-batch and refresh the online analyses."""
        with tel_span("stream.process_batch", events=len(events)):
            stats = self.state.ingest(events)
            self.totals.merge(stats)
            self.batches += 1
            counter_add("stream.events", stats.accepted, result="accepted")
            for result in ("late", "duplicate", "ignored", "invalid"):
                count = getattr(stats, result)
                if count:
                    counter_add("stream.events", count, result=result)
            if stats.unknown_system:
                counter_add(
                    "stream.events",
                    stats.unknown_system,
                    result="unknown_system",
                )
            self._refresh_risks(stats)
            self._emit_lag(stats)
            if self.alert_engine is not None:
                fired = self.alert_engine.evaluate(self, stats)
                self.alerts.extend(fired)
            if self.checkpointer is not None:
                self.checkpointer.maybe(self.state, stats.accepted)
        return stats

    def finalize(self) -> None:
        """End-of-stream: resolve all pending windows."""
        self.state.finalize()

    def _refresh_risks(self, stats: BatchStats) -> None:
        if not stats.touched:
            return
        try:
            model = risk_model_from_state(self.state, self.risk_horizon)
        except StreamAnalysisError:  # pragma: no cover - defensive
            return
        for system_id in sorted(stats.touched):
            self.latest_risks[system_id] = node_risks(
                self.state, model, system_id, limit=self.risk_limit
            )

    def _emit_lag(self, stats: BatchStats) -> None:
        for system_id in sorted(stats.touched):
            system = self.state.systems[system_id]
            high = system.clock.high
            watermark = system.clock.watermark
            if high != float("-inf") and high != float("inf"):
                gauge_set(
                    "stream.watermark_lag_days",
                    high - watermark,
                    system=str(system_id),
                )

    def risk_model(self) -> RiskModel:
        """The current streaming-counts risk model."""
        return risk_model_from_state(self.state, self.risk_horizon)
