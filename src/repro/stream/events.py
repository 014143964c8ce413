"""Typed event envelope and watermarking for the streaming pipeline.

A live failure feed differs from an archive in two ways the batch layer
never has to think about: events can arrive *out of order* (a node
reports its outage after its neighbours already reported theirs) and
*twice* (at-least-once delivery from a log shipper).  This module
provides the two primitives that tame both:

* :class:`StreamEvent` -- an immutable envelope around one record, with
  a stable ``event_id`` for deduplication and a JSONL wire format for
  the tail source;
* :class:`WatermarkClock` -- a monotone watermark with bounded
  out-of-order tolerance: the watermark trails the highest event time
  seen by ``lateness_days``; events older than the watermark are
  rejected as late, everything at or above it is admitted.  The
  monotone watermark is what lets the incremental counters in
  :mod:`repro.stream.state` *finalise* windows: once the watermark has
  passed a window's right edge, no admissible event can land in it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any

from ..records.taxonomy import Category, Subtype, all_subtypes, category_of


class StreamEventError(ValueError):
    """Raised on malformed stream events or wire payloads."""


#: Event kinds the pipeline transports.  Only ``failure`` events feed
#: the incremental analysis state; other kinds pass through (counted).
KIND_FAILURE = "failure"

_SUBTYPE_BY_TOKEN: dict[str, Subtype] = {s.value: s for s in all_subtypes()}
_CATEGORY_BY_TOKEN: dict[str, Category] = {c.value: c for c in Category}


@dataclass(frozen=True, slots=True, order=True)
class StreamEvent:
    """One event on the wire, ordered by ``(time, system_id, node_id)``.

    Attributes:
        time: event timestamp in days since the system's period start.
        system_id: LANL-style system identifier.
        node_id: node the event happened on.
        event_id: stable unique identifier used for deduplication;
            replaying the same source must reproduce the same ids.
        kind: event kind (currently ``"failure"``).
        category: root-cause category (failures).
        subtype: low-level root cause, when recorded.
        downtime_hours: repair time, when recorded.
    """

    time: float
    system_id: int
    node_id: int
    event_id: str = field(compare=False)
    kind: str = field(default=KIND_FAILURE, compare=False)
    category: Category | None = field(default=None, compare=False)
    subtype: Subtype | None = field(default=None, compare=False)
    downtime_hours: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        if not self.event_id:
            raise StreamEventError("event_id must be non-empty")
        if not math.isfinite(self.time):
            raise StreamEventError(f"event time must be finite, got {self.time}")
        if self.node_id < 0:
            raise StreamEventError(f"node_id must be >= 0, got {self.node_id}")
        if self.subtype is not None:
            implied = category_of(self.subtype)
            if self.category is None:
                object.__setattr__(self, "category", implied)
            elif self.category is not implied:
                raise StreamEventError(
                    f"subtype {self.subtype!r} conflicts with category "
                    f"{self.category!r}"
                )

    def to_json_line(self) -> str:
        """Serialise to one JSONL line (the tail-source wire format)."""
        payload: dict[str, Any] = {
            "event_id": self.event_id,
            "time": self.time,
            "system_id": self.system_id,
            "node_id": self.node_id,
            "kind": self.kind,
        }
        if self.category is not None:
            payload["category"] = self.category.value
        if self.subtype is not None:
            payload["subtype"] = self.subtype.value
        if self.downtime_hours:
            payload["downtime_hours"] = self.downtime_hours
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json_line(cls, line: str) -> "StreamEvent":
        """Parse one JSONL line; raises :class:`StreamEventError` on junk."""
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise StreamEventError(f"malformed JSONL event: {exc}") from exc
        if not isinstance(payload, dict):
            raise StreamEventError(
                f"JSONL event must be an object, got {type(payload).__name__}"
            )
        try:
            category_token = payload.get("category")
            subtype_token = payload.get("subtype")
            return cls(
                time=float(payload["time"]),
                system_id=int(payload["system_id"]),
                node_id=int(payload["node_id"]),
                event_id=str(payload["event_id"]),
                kind=str(payload.get("kind", KIND_FAILURE)),
                category=(
                    _CATEGORY_BY_TOKEN[category_token]
                    if category_token is not None
                    else None
                ),
                subtype=(
                    _SUBTYPE_BY_TOKEN[subtype_token]
                    if subtype_token is not None
                    else None
                ),
                downtime_hours=float(payload.get("downtime_hours", 0.0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise StreamEventError(f"invalid event payload: {exc}") from exc


class WatermarkClock:
    """Monotone watermark with bounded out-of-order tolerance.

    The watermark is ``high - lateness_days`` where ``high`` is the
    largest admitted event time.  :meth:`admit` accepts exactly the
    events with ``time >= watermark``, so after any admission the set of
    timestamps that can still arrive is bounded below by the watermark
    -- the property the incremental counters rely on to finalise
    windows.  :meth:`seal` pushes the watermark to ``+inf`` at
    end-of-stream so every pending window resolves.
    """

    __slots__ = ("lateness_days", "high")

    def __init__(self, lateness_days: float = 0.0, high: float = -math.inf) -> None:
        if lateness_days < 0 or not math.isfinite(lateness_days):
            raise StreamEventError(
                f"lateness_days must be finite and >= 0, got {lateness_days}"
            )
        self.lateness_days = lateness_days
        self.high = high

    @property
    def watermark(self) -> float:
        """Largest time below which no further event will be admitted."""
        if self.high == -math.inf:
            return -math.inf
        if self.high == math.inf:
            return math.inf
        return self.high - self.lateness_days

    def admit(self, time: float) -> bool:
        """Admit ``time`` if it is not late; advances ``high``."""
        if time < self.watermark:
            return False
        if time > self.high:
            self.high = time
        return True

    def seal(self) -> None:
        """End-of-stream: push the watermark past every representable time."""
        self.high = math.inf
