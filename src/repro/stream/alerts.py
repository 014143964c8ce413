"""Threshold alert rules over the online analysis state.

Alerts are the operational payoff of streaming the paper's analyses:
the conditional-probability structure says *which* events should put an
operator on alert (ENV and NET failures top the ranking), and the
online risk scorer says *which nodes* are currently at elevated risk.
Every fired alert is emitted through the existing telemetry layer (an
``stream.alerts`` counter labelled by rule plus a span per evaluation
round) so alert volume shows up in the same metrics snapshot as the
rest of the pipeline.

Alert timestamps are *stream time* (days on the event timeline), never
the wall clock -- evaluating the same stream twice fires byte-identical
alerts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..records.taxonomy import Category
from ..telemetry import counter_add, span as tel_span
from .state import ANY_CODE, BatchStats, selection_code


class AlertError(ValueError):
    """Raised on invalid alert-rule configuration."""


@dataclass(frozen=True, slots=True)
class Alert:
    """One fired alert.

    Attributes:
        rule: name of the rule that fired.
        system_id: system the alert refers to.
        node_id: node the alert refers to (None for system-wide alerts).
        stream_time: "now" on the event timeline when the rule fired.
        value: the observed quantity.
        threshold: the configured threshold it crossed.
        message: human-readable one-liner.
    """

    rule: str
    system_id: int
    node_id: int | None
    stream_time: float
    value: float
    threshold: float
    message: str


class AlertRule:
    """Base class: evaluate one rule against the online analysis."""

    name = "alert"

    def evaluate(
        self, analysis, stats: BatchStats
    ) -> list[Alert]:  # pragma: no cover - interface
        raise NotImplementedError


class NodeRiskRule(AlertRule):
    """Fires when a node's refreshed risk score crosses a threshold.

    Deduplicates per (system, node): the rule re-fires for a node only
    when its score first crosses the threshold after having dropped
    below it, not on every batch while it stays elevated.  Each system
    keeps the set of nodes that were over the threshold at its last
    evaluation; a node fires when it is over and was not in that set.
    """

    name = "node_risk"

    def __init__(self, threshold: float = 0.5) -> None:
        if not (0.0 < threshold < 1.0):
            raise AlertError(
                f"risk threshold must be in (0, 1), got {threshold}"
            )
        self.threshold = threshold
        self._over: dict[int, set[int]] = {}

    def evaluate(self, analysis, stats: BatchStats) -> list[Alert]:
        fired: list[Alert] = []
        for system_id in sorted(stats.touched):
            now = analysis.state.systems[system_id].clock.high
            was_over = self._over.get(system_id, set())
            over = set()
            for risk in analysis.latest_risks.get(system_id, ()):
                if risk.score < self.threshold:
                    continue
                over.add(risk.node_id)
                if risk.node_id in was_over:
                    continue
                fired.append(
                    Alert(
                        rule=self.name,
                        system_id=system_id,
                        node_id=risk.node_id,
                        stream_time=now,
                        value=risk.score,
                        threshold=self.threshold,
                        message=(
                            f"node {risk.node_id} of system {system_id} at "
                            f"risk {risk.score:.3f} >= {self.threshold:.3f} "
                            f"({risk.recent_own} recent own failures)"
                        ),
                    )
                )
            self._over[system_id] = over
        return fired


class CategoryBurstRule(AlertRule):
    """Fires when one system's trailing-window event count spikes.

    Counts events of ``category`` (any category by default) in the
    trailing ``window_days`` behind the system's stream high-water
    mark.
    """

    name = "category_burst"

    def __init__(
        self,
        threshold: int = 10,
        window_days: float = 1.0,
        category: Category | None = None,
    ) -> None:
        if threshold < 1:
            raise AlertError(f"threshold must be >= 1, got {threshold}")
        if window_days <= 0:
            raise AlertError(
                f"window_days must be positive, got {window_days}"
            )
        self.threshold = threshold
        self.window_days = window_days
        self.category = category
        self._last_fired: dict[int, float] = {}

    def evaluate(self, analysis, stats: BatchStats) -> list[Alert]:
        fired: list[Alert] = []
        code = (
            ANY_CODE if self.category is None else selection_code(self.category)
        )
        label = "any" if self.category is None else self.category.value
        for system_id in sorted(stats.touched):
            system = analysis.state.systems[system_id]
            store = system.store(code)
            if store is None or not len(store):
                continue
            now = system.clock.high
            times = store.times
            lo = int(np.searchsorted(times, now - self.window_days, side="right"))
            count = int(times.size - lo)
            if count < self.threshold:
                continue
            # At most one burst alert per window per system.
            last = self._last_fired.get(system_id)
            if last is not None and now - last < self.window_days:
                continue
            self._last_fired[system_id] = now
            fired.append(
                Alert(
                    rule=self.name,
                    system_id=system_id,
                    node_id=None,
                    stream_time=now,
                    value=float(count),
                    threshold=float(self.threshold),
                    message=(
                        f"system {system_id}: {count} {label} failures in "
                        f"the trailing {self.window_days:g} days (>= "
                        f"{self.threshold})"
                    ),
                )
            )
        return fired


class AlertEngine:
    """Evaluates a fixed rule set per micro-batch and emits telemetry."""

    def __init__(self, rules: Sequence[AlertRule]) -> None:
        if not rules:
            raise AlertError("need at least one alert rule")
        self.rules = list(rules)

    @classmethod
    def default(
        cls, risk_threshold: float = 0.5, burst_threshold: int = 10
    ) -> "AlertEngine":
        """The CLI's default rule set."""
        return cls(
            [
                NodeRiskRule(threshold=risk_threshold),
                CategoryBurstRule(threshold=burst_threshold),
            ]
        )

    def evaluate(self, analysis, stats: BatchStats) -> list[Alert]:
        """Run every rule; returns the alerts fired by this batch."""
        fired: list[Alert] = []
        with tel_span("stream.alerts", batch_events=stats.total()):
            for rule in self.rules:
                alerts = rule.evaluate(analysis, stats)
                if alerts:
                    counter_add("stream.alerts", len(alerts), rule=rule.name)
                    fired.extend(alerts)
        return fired


def render_alerts(alerts: Iterable[Alert]) -> str:
    """Human-readable alert log (stable ordering, stream timestamps)."""
    lines = [
        f"[t={alert.stream_time:10.4f}] {alert.rule}: {alert.message}"
        for alert in alerts
    ]
    return "\n".join(lines)
