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
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.windows import Scope, concat_ranges
from ..prediction.risk import SCOPE_CODES, RiskModel
from ..records.taxonomy import Category, all_categories
from ..records.timeutil import Span
from ..telemetry import (
    counter_add,
    gauge_set,
    metrics_enabled,
    observe,
    span as tel_span,
)
from .events import StreamEvent
from .state import (
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


def risk_model_from_state(
    state: StreamAnalysisState, horizon: Span = Span.WEEK
) -> RiskModel:
    """Fit a :class:`RiskModel` from the current streaming counts.

    Mirrors :meth:`RiskModel.fit` cell for cell: the baseline is the
    pooled any-failure baseline at the horizon, and each (scope,
    trigger category) probability is the pooled conditional point
    estimate when defined (trials > 0).  Every conditional cell comes
    from one :meth:`StreamAnalysisState.pooled_any_target` reduction.
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
    base = state.pooled_baseline(None, horizon)
    baseline = base.successes / base.trials if base.trials else 0.0
    pooled = state.pooled_any_target(horizon).tolist()
    position = {trigger: i for i, trigger in enumerate(state.config.selections)}
    conditional: dict[tuple[Scope, Category], float] = {}
    for scope in (Scope.NODE, Scope.RACK, Scope.SYSTEM):
        if scope is Scope.RACK and not any_rack:
            continue
        cells = pooled[_POOLED_ROWS.index(scope)]
        for category in all_categories():
            if category not in position:
                continue
            successes, trials = cells[position[category]]
            if trials > 0:
                conditional[(scope, category)] = successes / trials
    return RiskModel(horizon=horizon, baseline=baseline, conditional=conditional)


#: Scope order of :meth:`StreamAnalysisState.pooled_any_target` rows.
_POOLED_ROWS = (Scope.NODE, Scope.SYSTEM, Scope.RACK)


#: Category code -> rank of the category's name (the history sort key).
_NAME_RANK = np.argsort(np.argsort([c.value for c in all_categories()]))


def node_risks(
    state: StreamAnalysisState,
    model: RiskModel,
    system_ids: Sequence[int],
    limit: int | None = None,
) -> dict[int, list[NodeRisk]]:
    """Score the nodes of each system against the trailing horizon window.

    "Now" is each system's stream high-water mark (never the wall
    clock), and the recent-failure history feeding the scorer is read
    from the streaming per-category stores: a node's own events score at
    NODE scope, its rack peers' events at RACK scope and the rest of
    the system at SYSTEM scope.  Only nodes with at least one own or
    rack event are scored -- every other node shares the same ambient
    (system-events-only) score, which carries no ranking information.
    Each system's results sort by descending score, then node id;
    ``limit`` keeps the per-batch refresh bounded.  Every candidate of
    every system scores in one :meth:`RiskModel.score_batch` call,
    histories in (time, node, category name) order.
    """
    risks: dict[int, list[NodeRisk]] = {system_id: [] for system_id in system_ids}
    try:
        systems = [state.systems[system_id] for system_id in risks]
    except KeyError as exc:
        raise StreamAnalysisError(f"unknown system {exc.args[0]}") from exc
    systems = [s for s in systems if math.isfinite(s.clock.high)]
    if not systems:
        return risks
    now = np.array([system.clock.high for system in systems])
    # Recent (system, time, node, category) events; events without a
    # category (never tracked beyond the ANY store) carry no risk
    # information and are skipped.
    owner, t, n, c = state.category_history(systems, now - model.horizon.days)
    if not t.size:
        return risks
    # Hazards accumulate in (time, node, category name) order.
    order = np.lexsort((_NAME_RANK[c], n, t, owner))
    owner, t, n, c = owner[order], t[order], n[order], c[order]
    history = np.searchsorted(owner, np.arange(len(systems) + 1))
    # Score the nodes the recent history can differentiate: nodes with
    # their own events plus their rack peers.
    racks = state.node_racks
    candidates = np.flatnonzero(np.isin(racks, racks[n]))
    index = np.array([system.index for system in systems])
    position = np.full(len(state.node_offsets) - 1, -1)
    position[index] = np.arange(len(systems))
    cand_owner = position[
        np.searchsorted(state.node_offsets, candidates, side="right") - 1
    ]
    # Each candidate's history: every recent event of its system, scoped
    # relative to it.
    lo, hi = history[cand_owner], history[cand_owner + 1]
    lengths = hi - lo
    events = concat_ranges(lo, hi)
    node = np.repeat(candidates, lengths)
    own = n[events] == node
    scopes = np.where(own, SCOPE_CODES[Scope.NODE], SCOPE_CODES[Scope.SYSTEM])
    scopes[~own & (racks[n[events]] == racks[node])] = SCOPE_CODES[Scope.RACK]
    scores = model.score_batch(
        lengths,
        np.maximum(now[owner[events]] - t[events], 0.0),
        scopes,
        c[events],
    )
    recent_own = np.bincount(
        np.repeat(np.arange(candidates.size), lengths)[own],
        minlength=candidates.size,
    )
    local = candidates - state.node_offsets[index[cand_owner]]
    # Per system: descending score, then node id, then the limit.
    order = np.lexsort((local, -scores, cand_owner))
    rank = np.arange(order.size) - np.searchsorted(
        cand_owner[order], cand_owner[order]
    )
    if limit is not None:
        order = order[rank < limit]
    for i, node_id, score, own_count in zip(
        cand_owner[order].tolist(),
        local[order].tolist(),
        scores[order].tolist(),
        recent_own[order].tolist(),
    ):
        system_id = systems[i].system_id
        risks[system_id].append(
            NodeRisk(
                system_id=system_id,
                node_id=node_id,
                score=score,
                recent_own=own_count,
            )
        )
    return risks


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
        """Absorb one micro-batch and refresh the online analyses.

        With metrics on, the batch's wall time is one ``stream.batch_s``
        histogram observation; with them off this costs one flag check.
        """
        timed = metrics_enabled()
        if timed:
            started = time.perf_counter()  # repro: noqa DET002 - latency metric
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
        if timed:
            observe(
                "stream.batch_s",
                time.perf_counter() - started,  # repro: noqa DET002
            )
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
        self.latest_risks.update(
            node_risks(self.state, model, sorted(stats.touched), limit=self.risk_limit)
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
