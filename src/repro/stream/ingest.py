"""Ingestion pipeline with pluggable sources, in one synchronous loop.

Wire format to analysis state in three pieces:

* **sources** -- iterables of :class:`~repro.stream.events.StreamEvent`:
  :func:`archive_source` (replay a generated archive in timestamp
  order), :func:`jsonl_source` (read/tail a JSONL event log) and
  :func:`synthetic_source` (a live feed driven by the simulator's
  cascade hazard state, for soak-testing consumers without an archive);
  a :class:`ClockedSource` (a paced feed, a followed log) says which
  events are due at each turn;
* **queue** -- :class:`BoundedQueue`, a plain buffer of one turn's due
  events with three backpressure policies for a backlog larger than its
  capacity: ``block`` (lossless, keeps everything), ``drop-oldest``
  (keeps the newest events) and ``reject`` (keeps the oldest);
* **pipeline** -- :class:`IngestPipeline` runs one loop on the calling
  thread: each turn takes the events due now, applies the policy, and
  hands them to the consumer in micro-batches.

Only a clocked source can have a backlog: any other source is read on
demand, no more than the buffer holds, so it never loses an event.
"""

from __future__ import annotations

import enum
import time
from collections import deque
from itertools import islice, repeat
from pathlib import Path
from typing import Iterable, Iterator, Protocol

import numpy as np

from ..records.dataset import Archive, FailureTable
from ..records.taxonomy import all_categories
from ..simulate.config import EffectSizes
from ..simulate.hazards import CascadeState
from ..stats.seeding import resolve_rng
from ..telemetry import counter_add, gauge_set, span as tel_span
from .events import KIND_FAILURE, StreamEvent, StreamEventError
from .state import BatchStats


class IngestError(ValueError):
    """Raised on invalid pipeline configuration."""


class BackpressurePolicy(enum.Enum):
    """What :class:`BoundedQueue` does with a backlog over capacity."""

    BLOCK = "block"            # keep everything (lossless)
    DROP_OLDEST = "drop-oldest"  # keep the newest ``capacity`` events
    REJECT = "reject"          # keep the oldest ``capacity`` events

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class BoundedQueue:
    """An event buffer that applies a backpressure policy on overflow.

    Attributes:
        dropped_oldest: events evicted under ``drop-oldest``.
        rejected: events discarded under ``reject``.
    """

    def __init__(
        self,
        capacity: int = 1024,
        policy: BackpressurePolicy = BackpressurePolicy.BLOCK,
    ) -> None:
        if capacity < 1:
            raise IngestError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.policy = policy
        self._items: deque[StreamEvent] = deque()
        self.dropped_oldest = 0
        self.rejected = 0

    def extend(self, events: Iterable[StreamEvent]) -> None:
        """Buffer ``events``; the policy trims what exceeds ``capacity``."""
        items = self._items
        items.extend(events)
        excess = len(items) - self.capacity
        if excess <= 0 or self.policy is BackpressurePolicy.BLOCK:
            return
        if self.policy is BackpressurePolicy.DROP_OLDEST:
            for _ in range(excess):
                items.popleft()
            self.dropped_oldest += excess
        else:
            for _ in range(excess):
                items.pop()
            self.rejected += excess

    def get_batch(self, max_events: int) -> list[StreamEvent]:
        """The oldest ``max_events`` buffered events (fewer if drained)."""
        if max_events < 1:
            raise IngestError(f"max_events must be >= 1, got {max_events}")
        items = self._items
        return [items.popleft() for _ in range(min(max_events, len(items)))]

    def depth(self) -> int:
        """Current buffer occupancy."""
        return len(self._items)


class ClockedSource:
    """A source with a clock: ``turns`` yields the events due at each turn.

    :class:`IngestPipeline` applies its backpressure policy to each
    turn, so a backlog that builds up while the consumer is busy is
    bounded.  Iterating the source itself yields the events one by one.
    """

    def __init__(self, turns: Iterable[list[StreamEvent]]) -> None:
        self.turns = turns

    def __iter__(self) -> Iterator[StreamEvent]:
        for turn in self.turns:
            yield from turn


# ----------------------------------------------------------------------
# sources


def archive_event_id(system_id: int, index: int) -> str:
    """Stable id of the ``index``-th failure of one system's sorted log."""
    return f"s{system_id}-f{index:06d}"


def archive_source(archive: Archive) -> Iterator[StreamEvent]:
    """Replay an archive's failure logs as one merged, time-ordered feed.

    Event ids are derived from each failure's position in its system's
    sorted log, so replaying the same archive always reproduces the
    same ids -- the property checkpoint resume relies on.  The events
    are built from the failure tables' columns, in the order a stable
    sort of them by ``(time, system_id, node_id)`` gives.
    """
    tables = [ds.failure_table for ds in archive]
    systems = np.repeat([ds.system_id for ds in archive], list(map(len, tables)))
    rows = np.concatenate([np.arange(len(t)) for t in tables])

    def merged(column: str) -> np.ndarray:
        return np.concatenate([getattr(t, column) for t in tables])

    times, nodes = merged("times"), merged("node_ids")
    order = np.lexsort((nodes, systems, times))
    systems = systems[order].tolist()
    yield from map(
        StreamEvent,
        times[order].tolist(),
        systems,
        nodes[order].tolist(),
        map(archive_event_id, systems, rows[order].tolist()),
        repeat(KIND_FAILURE),
        map(FailureTable.CATEGORIES.__getitem__, merged("category_codes")[order].tolist()),
        map(FailureTable.SUBTYPES.__getitem__, merged("subtype_codes")[order].tolist()),
        merged("downtime_hours")[order].tolist(),
    )


def jsonl_source(
    path: Path | str,
    follow: bool = False,
    poll_seconds: float = 0.2,
) -> Iterable[StreamEvent]:
    """Read (and optionally tail) a JSONL event log.

    With ``follow=True`` the source is a :class:`ClockedSource`: each
    turn hands over the complete lines present up to EOF, and it polls
    every ``poll_seconds`` while none are, like ``tail -f``; it never
    ends on its own.  A last line without its newline is one its writer
    has not finished: it is held back until the newline arrives.  A
    plain read parses a final line without a newline as it stands.
    Malformed lines are skipped and counted in ``stream.source_errors``,
    so one corrupt record cannot wedge a live pipeline.
    """
    if follow:
        return ClockedSource(_tail_jsonl(Path(path), poll_seconds))
    return _read_jsonl(Path(path))


def _read_jsonl(path: Path) -> Iterator[StreamEvent]:
    with open(path, "r", encoding="utf-8") as handle:
        yield from _parse_lines(handle)


def _tail_jsonl(
    path: Path, poll_seconds: float
) -> Iterator[list[StreamEvent]]:
    with open(path, "r", encoding="utf-8") as handle:
        unfinished = ""
        while True:
            lines = handle.readlines()
            if lines:
                lines[0] = unfinished + lines[0]
                unfinished = "" if lines[-1].endswith("\n") else lines.pop()
            turn = list(_parse_lines(lines))
            if turn:
                yield turn
            else:
                time.sleep(poll_seconds)


def _parse_lines(lines: Iterable[str]) -> Iterator[StreamEvent]:
    """The events of ``lines`` (an open file reads to EOF)."""
    for line in lines:
        text = line.strip()
        if not text:
            continue
        try:
            yield StreamEvent.from_json_line(text)
        except StreamEventError:
            counter_add("stream.source_errors", 1, source="jsonl")


def synthetic_source(
    num_nodes: int = 64,
    days: float = 365.0,
    seed: int | None = None,
    system_id: int = 0,
    base_rate_per_node_per_day: float = 0.02,
    cascade_scale: float = 1.0,
) -> Iterator[StreamEvent]:
    """A synthetic live feed driven by the simulator's cascade hazards.

    Day-stepped: each day every node draws failures from a Poisson
    hazard composed of a flat base rate plus the decaying cascade boost
    that earlier failures left behind (:class:`CascadeState`), so the
    feed exhibits the paper's temporal clustering.  Deterministic given
    ``seed``.
    """
    if num_nodes < 1:
        raise IngestError(f"num_nodes must be >= 1, got {num_nodes}")
    if days <= 0:
        raise IngestError(f"days must be positive, got {days}")
    rng = (
        np.random.default_rng(seed) if seed is not None else resolve_rng(None)
    )
    categories = all_categories()
    effects = EffectSizes()
    cascade = CascadeState(
        num_nodes, effects, cascade_scale=cascade_scale, rack_of=None
    )
    counter = 0
    for day in range(int(days)):
        hazard = base_rate_per_node_per_day + cascade.boost.sum(axis=1)
        draws = rng.poisson(hazard)
        nodes = np.repeat(np.arange(num_nodes), draws)
        n = int(nodes.size)
        if n:
            offsets = np.sort(rng.uniform(0.0, 1.0, size=n))
            cats = rng.integers(0, len(categories), size=n)
            order = np.argsort(offsets, kind="stable")
            for pos in order.tolist():
                counter += 1
                yield StreamEvent(
                    time=float(day + offsets[pos]),
                    system_id=system_id,
                    node_id=int(nodes[pos]),
                    event_id=f"live-{counter:08d}",
                    category=categories[int(cats[pos])],
                )
            cascade.absorb(nodes, cats)
        cascade.decay()


# ----------------------------------------------------------------------
# pipeline


class EventConsumer(Protocol):
    """Anything that can absorb micro-batches of events."""

    def process_batch(
        self, events: list[StreamEvent]
    ) -> BatchStats:  # pragma: no cover - protocol
        ...


class IngestPipeline:
    """Source, buffer and consumer, driven by one synchronous loop."""

    def __init__(
        self,
        source: Iterable[StreamEvent],
        consumer: EventConsumer,
        capacity: int = 1024,
        policy: BackpressurePolicy = BackpressurePolicy.BLOCK,
        batch_size: int = 256,
        max_events: int | None = None,
    ) -> None:
        if batch_size < 1:
            raise IngestError(f"batch_size must be >= 1, got {batch_size}")
        self.source = source
        self.consumer = consumer
        self.queue = BoundedQueue(capacity=capacity, policy=policy)
        self.batch_size = batch_size
        self.max_events = max_events

    def run(self) -> BatchStats:
        """Run the pipeline to completion; returns pooled batch stats.

        ``max_events`` stops the loop after that many events were
        delivered (used to force mid-stream shutdowns in tests and the
        CI checkpoint/restore cycle); the source is not read further.
        Per-batch telemetry: queue depth gauge and a span per batch.
        """
        totals = BatchStats()
        remaining = self.max_events
        with tel_span(
            "stream.pipeline",
            policy=self.queue.policy.value,
            capacity=self.queue.capacity,
        ):
            batches = self._batches()
            while remaining is None or remaining > 0:
                batch = next(batches, None)
                if batch is None:
                    break
                if remaining is not None:
                    batch = batch[:remaining]
                    remaining -= len(batch)
                with tel_span("stream.batch", events=len(batch)):
                    stats = self.consumer.process_batch(batch)
                totals.merge(stats)
                gauge_set("stream.queue_depth", self.queue.depth())
        counter_add("stream.queue_dropped", self.queue.dropped_oldest)
        counter_add("stream.queue_rejected", self.queue.rejected)
        return totals

    def _batches(self) -> Iterator[list[StreamEvent]]:
        """Micro-batches of each turn's due events, after the policy."""
        queue = self.queue
        for due in self._turns():
            queue.extend(due)
            while queue.depth():
                yield queue.get_batch(self.batch_size)

    def _turns(self) -> Iterable[list[StreamEvent]]:
        """The source's events, one list per turn.

        A clocked source says what is due; any other source is read on
        demand, never more than the buffer holds, so it never overflows.
        """
        if isinstance(self.source, ClockedSource):
            return self.source.turns
        events = iter(self.source)
        size = min(self.batch_size, self.queue.capacity)
        return iter(lambda: list(islice(events, size)), [])
