"""Bounded-queue ingestion pipeline with pluggable sources.

Wire format to analysis state in three pieces:

* **sources** -- generators of :class:`~repro.stream.events.StreamEvent`:
  :func:`archive_source` (replay a generated archive in timestamp
  order), :func:`jsonl_source` (read/tail a JSONL event log) and
  :func:`synthetic_source` (a live feed driven by the simulator's
  cascade hazard state, for soak-testing consumers without an archive);
* **queue** -- :class:`BoundedQueue`, a small thread-safe buffer between
  the producer and the consumer with three backpressure policies:
  ``block`` (lossless, producer waits), ``drop-oldest`` (bounded lag,
  oldest events discarded) and ``reject`` (newest events discarded);
* **pipeline** -- :class:`IngestPipeline` runs the producer on a
  thread and drains the queue in micro-batches through
  :func:`consume_loop` on the calling thread.

``consume_loop`` is the entry point of the consumer side and is listed
in :data:`STREAM_CONSUMER_ROOTS`, which the lint CONC001 rule uses as a
call-graph root: any module-level state written by code reachable from
the ingest pipeline is flagged as a data race.
"""

from __future__ import annotations

import enum
import threading
import time
from collections import deque
from pathlib import Path
from typing import Callable, Iterable, Iterator, Protocol

import numpy as np

from ..records.dataset import Archive
from ..records.taxonomy import all_categories
from ..simulate.config import EffectSizes
from ..simulate.hazards import CascadeState
from ..stats.seeding import resolve_rng
from ..telemetry import counter_add, gauge_set, span as tel_span
from .events import StreamEvent, StreamEventError, failure_event
from .state import BatchStats


class IngestError(ValueError):
    """Raised on invalid pipeline configuration."""


class BackpressurePolicy(enum.Enum):
    """What :meth:`BoundedQueue.put` does when the queue is full."""

    BLOCK = "block"            # wait for space (lossless)
    DROP_OLDEST = "drop-oldest"  # evict the oldest queued event
    REJECT = "reject"          # discard the incoming event

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class BoundedQueue:
    """A small thread-safe event buffer with configurable backpressure.

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
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._closed = False
        self.dropped_oldest = 0
        self.rejected = 0

    def put(self, event: StreamEvent) -> bool:
        """Enqueue one event; returns False when it was not enqueued."""
        with self._lock:
            if self._closed:
                return False
            if len(self._items) >= self.capacity:
                if self.policy is BackpressurePolicy.BLOCK:
                    while len(self._items) >= self.capacity and not self._closed:
                        self._not_full.wait()
                    if self._closed:
                        return False
                elif self.policy is BackpressurePolicy.DROP_OLDEST:
                    self._items.popleft()
                    self.dropped_oldest += 1
                else:
                    self.rejected += 1
                    return False
            self._items.append(event)
            self._not_empty.notify()
            return True

    def get_batch(self, max_events: int) -> list[StreamEvent] | None:
        """Up to ``max_events`` queued events; ``None`` at end of stream.

        Blocks until at least one event is available or the queue is
        closed and drained.
        """
        if max_events < 1:
            raise IngestError(f"max_events must be >= 1, got {max_events}")
        with self._lock:
            while not self._items and not self._closed:
                self._not_empty.wait()
            if not self._items:
                return None
            batch = []
            while self._items and len(batch) < max_events:
                batch.append(self._items.popleft())
            self._not_full.notify_all()
            return batch

    def close(self) -> None:
        """Stop accepting events and wake every waiter."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()

    def depth(self) -> int:
        """Current queue occupancy."""
        with self._lock:
            return len(self._items)

    @property
    def closed(self) -> bool:
        """True once :meth:`close` was called."""
        with self._lock:
            return self._closed


# ----------------------------------------------------------------------
# sources


def archive_event_id(system_id: int, index: int) -> str:
    """Stable id of the ``index``-th failure of one system's sorted log."""
    return f"s{system_id}-f{index:06d}"


def archive_source(archive: Archive) -> Iterator[StreamEvent]:
    """Replay an archive's failure logs as one merged, time-ordered feed.

    Event ids are derived from each failure's position in its system's
    sorted log, so replaying the same archive always reproduces the
    same ids -- the property checkpoint resume relies on.
    """
    events = [
        failure_event(record, archive_event_id(ds.system_id, i))
        for ds in archive
        for i, record in enumerate(ds.failures)
    ]
    events.sort()
    yield from events


def jsonl_source(
    path: Path | str,
    follow: bool = False,
    poll_seconds: float = 0.2,
    stop: threading.Event | None = None,
    on_error: Callable[[str, StreamEventError], None] | None = None,
) -> Iterator[StreamEvent]:
    """Read (and optionally tail) a JSONL event log.

    With ``follow=True`` the source keeps polling for appended lines
    until ``stop`` is set, like ``tail -f``.  Malformed lines are
    skipped (reported through ``on_error`` when given) so one corrupt
    record cannot wedge a live pipeline.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8") as handle:
        while True:
            line = handle.readline()
            if line:
                text = line.strip()
                if not text:
                    continue
                try:
                    yield StreamEvent.from_json_line(text)
                except StreamEventError as exc:
                    counter_add("stream.source_errors", 1, source="jsonl")
                    if on_error is not None:
                        on_error(text, exc)
                continue
            if not follow or (stop is not None and stop.is_set()):
                return
            time.sleep(poll_seconds)


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


def produce(source: Iterable[StreamEvent], queue: BoundedQueue) -> int:
    """Feed a source into the queue; returns events offered.

    Stops early when the queue is closed (consumer-side shutdown).
    """
    offered = 0
    for event in source:
        if queue.closed:
            break
        offered += 1
        queue.put(event)
    return offered


def consume_loop(
    queue: BoundedQueue,
    consumer: EventConsumer,
    batch_size: int = 256,
    max_events: int | None = None,
) -> BatchStats:
    """Drain the queue through ``consumer`` until end-of-stream.

    Runs on the calling thread; one iteration pulls up to
    ``batch_size`` events and hands them to the consumer as a single
    micro-batch.  ``max_events`` stops the loop after that many events
    were delivered (used to force mid-stream shutdowns in tests and the
    CI checkpoint/restore cycle).  Per-batch telemetry: queue depth
    gauge, processed-event counters and a span per batch.
    """
    if batch_size < 1:
        raise IngestError(f"batch_size must be >= 1, got {batch_size}")
    totals = BatchStats()
    delivered = 0
    while True:
        limit = batch_size
        if max_events is not None:
            remaining = max_events - delivered
            if remaining <= 0:
                break
            limit = min(limit, remaining)
        batch = queue.get_batch(limit)
        if batch is None:
            break
        delivered += len(batch)
        with tel_span("stream.batch", events=len(batch)):
            stats = consumer.process_batch(batch)
        totals.merge(stats)
        gauge_set("stream.queue_depth", queue.depth())
    return totals


#: Call-graph roots of both sides of the ingest pipeline; the lint
#: CONC001 rule flags module state written by anything reachable from
#: here as a data race.
STREAM_CONSUMER_ROOTS = (consume_loop, produce)


class IngestPipeline:
    """Producer thread + bounded queue + consumer loop, wired together."""

    def __init__(
        self,
        source: Iterable[StreamEvent],
        consumer: EventConsumer,
        capacity: int = 1024,
        policy: BackpressurePolicy = BackpressurePolicy.BLOCK,
        batch_size: int = 256,
        max_events: int | None = None,
    ) -> None:
        self.source = source
        self.consumer = consumer
        self.queue = BoundedQueue(capacity=capacity, policy=policy)
        self.batch_size = batch_size
        self.max_events = max_events

    def run(self) -> BatchStats:
        """Run the pipeline to completion; returns pooled batch stats."""
        producer = threading.Thread(
            target=self._produce, name="stream-producer", daemon=True
        )
        with tel_span(
            "stream.pipeline",
            policy=self.queue.policy.value,
            capacity=self.queue.capacity,
        ):
            producer.start()
            try:
                totals = consume_loop(
                    self.queue,
                    self.consumer,
                    batch_size=self.batch_size,
                    max_events=self.max_events,
                )
            finally:
                # Early exit (max_events) must release a blocked producer.
                self.queue.close()
                producer.join()
        counter_add("stream.queue_dropped", self.queue.dropped_oldest)
        counter_add("stream.queue_rejected", self.queue.rejected)
        return totals

    def _produce(self) -> None:
        try:
            produce(self.source, self.queue)
        finally:
            self.queue.close()
