"""Buffer backpressure policies, the ingest loop and paced sources."""

from __future__ import annotations

import contextlib
import itertools
import signal

import pytest

from repro import telemetry
from repro.stream import (
    BackpressurePolicy,
    BatchStats,
    BoundedQueue,
    IngestError,
    IngestPipeline,
    Pacer,
    StreamEvent,
    jsonl_source,
)


def _event(i: int) -> StreamEvent:
    return StreamEvent(time=float(i), system_id=0, node_id=0, event_id=f"e{i}")


class TestPolicies:
    def test_drop_oldest_evicts_head(self):
        queue = BoundedQueue(capacity=3, policy=BackpressurePolicy.DROP_OLDEST)
        queue.extend(_event(i) for i in range(5))
        assert queue.dropped_oldest == 2
        batch = queue.get_batch(10)
        assert [ev.event_id for ev in batch] == ["e2", "e3", "e4"]

    def test_reject_discards_incoming(self):
        queue = BoundedQueue(capacity=3, policy=BackpressurePolicy.REJECT)
        queue.extend([_event(0)])
        queue.extend(_event(i) for i in range(1, 5))
        assert queue.rejected == 2
        batch = queue.get_batch(10)
        assert [ev.event_id for ev in batch] == ["e0", "e1", "e2"]

    def test_block_keeps_the_whole_backlog(self):
        queue = BoundedQueue(capacity=3, policy=BackpressurePolicy.BLOCK)
        queue.extend(_event(i) for i in range(5))
        assert queue.depth() == 5
        assert queue.dropped_oldest == 0 and queue.rejected == 0

    def test_get_batch_drains_in_order(self):
        queue = BoundedQueue()
        queue.extend(_event(i) for i in range(3))
        assert [ev.event_id for ev in queue.get_batch(2)] == ["e0", "e1"]
        assert [ev.event_id for ev in queue.get_batch(2)] == ["e2"]
        assert queue.get_batch(2) == []

    def test_invalid_capacity_rejected(self):
        with pytest.raises(IngestError):
            BoundedQueue(capacity=0)

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(IngestError):
            IngestPipeline([], _Recorder(), batch_size=0)


class _Recorder:
    """A consumer that records delivered batches."""

    def __init__(self):
        self.batches: list[list[StreamEvent]] = []

    def process_batch(self, events):
        self.batches.append(list(events))
        return BatchStats(accepted=len(events))


class TestPipeline:
    def test_pipeline_delivers_everything_in_order(self):
        recorder = _Recorder()
        events = [_event(i) for i in range(100)]
        pipeline = IngestPipeline(
            iter(events), recorder, capacity=8, batch_size=7
        )
        totals = pipeline.run()
        assert totals.accepted == 100
        flat = [ev for batch in recorder.batches for ev in batch]
        assert flat == events
        assert all(len(batch) <= 7 for batch in recorder.batches)

    @pytest.mark.parametrize("policy", list(BackpressurePolicy))
    def test_unpaced_source_never_drops(self, policy):
        # A plain iterable is read on demand, so a small buffer bounds
        # the read-ahead and no policy ever loses an event.
        recorder = _Recorder()
        events = [_event(i) for i in range(100)]
        pipeline = IngestPipeline(
            iter(events), recorder, capacity=4, batch_size=10, policy=policy
        )
        assert pipeline.run().accepted == 100
        assert [ev for b in recorder.batches for ev in b] == events
        assert pipeline.queue.dropped_oldest == 0
        assert pipeline.queue.rejected == 0

    def test_max_events_stops_early_and_releases_producer(self):
        # An endless source: the loop must stop reading it.
        recorder = _Recorder()
        source = (_event(i) for i in itertools.count())
        pipeline = IngestPipeline(
            source, recorder, capacity=4, batch_size=10, max_events=25
        )
        totals = pipeline.run()
        assert totals.accepted == 25
        delivered = [ev for batch in recorder.batches for ev in batch]
        assert delivered == [_event(i) for i in range(25)]

    def test_slow_consumer_under_drop_oldest_keeps_newest(self, clock):
        result = _paced_run(clock, BackpressurePolicy.DROP_OLDEST)
        assert result == PACED_EXPECTED[BackpressurePolicy.DROP_OLDEST]

    def test_slow_consumer_under_reject_keeps_oldest(self, clock):
        result = _paced_run(clock, BackpressurePolicy.REJECT)
        assert result == PACED_EXPECTED[BackpressurePolicy.REJECT]


class FakeClock:
    """Stands in for the ``time`` module that :class:`Pacer` reads."""

    def __init__(self, start: float = 100.0) -> None:
        self.now = start
        self.sleeps: list[float] = []

    def monotonic(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr("repro.stream.replay.time", fake)
    return fake


class _SlowConsumer(_Recorder):
    """Every batch costs ``cost`` seconds on the fake clock."""

    def __init__(self, clock: FakeClock, cost: float) -> None:
        super().__init__()
        self.clock = clock
        self.cost = cost

    def process_batch(self, events):
        self.clock.now += self.cost
        return super().process_batch(events)


#: Events at days 0..11 and 40, played at one day per second; the
#: consumer takes 4 s per batch of at most 2, the buffer holds 3.
#:
#: * t=100: e0 is due -> [e0]; the clock moves to 104.
#: * t=104: e1..e4 are due, 4 > 3.  drop-oldest drops e1, reject drops
#:   e4; two batches move the clock to 112.
#: * t=112: e5..e11 are due, 7 > 3.  drop-oldest keeps e9..e11, reject
#:   keeps e5..e7 (4 lost each); two batches move the clock to 120.
#:   block keeps all seven: four batches, to 128.
#: * e40 is due at 140: nothing is due, so the pacer sleeps 20 s (12 s
#:   under block) and then hands it over.
PACED_EXPECTED = {
    BackpressurePolicy.DROP_OLDEST: (
        [0, 2, 3, 4, 9, 10, 11, 40], 5, 0, [20.0]
    ),
    BackpressurePolicy.REJECT: ([0, 1, 2, 3, 5, 6, 7, 40], 0, 5, [20.0]),
    BackpressurePolicy.BLOCK: ([*range(12), 40], 0, 0, [12.0]),
}


def _paced_run(clock: FakeClock, policy: BackpressurePolicy):
    """``(delivered days, dropped, rejected, sleeps)`` of one paced run."""
    consumer = _SlowConsumer(clock, cost=4.0)
    source = Pacer(speed=1.0).paced(_event(i) for i in [*range(12), 40])
    pipeline = IngestPipeline(
        source, consumer, capacity=3, policy=policy, batch_size=2
    )
    pipeline.run()
    assert all(len(batch) <= 2 for batch in consumer.batches)
    delivered = [int(ev.time) for b in consumer.batches for ev in b]
    queue = pipeline.queue
    return delivered, queue.dropped_oldest, queue.rejected, list(clock.sleeps)


class TestPacer:
    def test_block_delivers_everything_in_order(self, clock):
        result = _paced_run(clock, BackpressurePolicy.BLOCK)
        assert result == PACED_EXPECTED[BackpressurePolicy.BLOCK]

    @pytest.mark.parametrize("policy", list(BackpressurePolicy))
    def test_repeated_runs_are_identical(self, monkeypatch, policy):
        results = []
        for _ in range(2):
            fake = FakeClock()
            monkeypatch.setattr("repro.stream.replay.time", fake)
            results.append(_paced_run(fake, policy))
        assert results[0] == results[1] == PACED_EXPECTED[policy]

    def test_invalid_speed_rejected(self):
        with pytest.raises(ValueError):
            Pacer(speed=0.0)


@contextlib.contextmanager
def deadline(seconds: int):
    """Fail instead of hanging when a followed log is polled too long."""

    def hung(signum, frame):
        raise TimeoutError("the run waited on a followed log")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestFollowedLog:
    def _write(self, path, events, mode="w"):
        with open(path, mode, encoding="utf-8") as handle:
            handle.writelines(ev.to_json_line() + "\n" for ev in events)

    def test_each_turn_hands_over_the_lines_up_to_eof(self, tmp_path):
        path = tmp_path / "events.jsonl"
        self._write(path, [_event(i) for i in range(5)])
        turns = iter(jsonl_source(path, follow=True).turns)
        with deadline(10):
            assert next(turns) == [_event(i) for i in range(5)]
            self._write(path, [_event(5), _event(6)], mode="a")
            assert next(turns) == [_event(5), _event(6)]

    def test_an_unfinished_line_waits_for_its_newline(self, tmp_path):
        path = tmp_path / "events.jsonl"
        self._write(path, [_event(0), _event(1)])
        line = _event(2).to_json_line() + "\n"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line[:10])
        telemetry.reset_metrics()
        telemetry.set_metrics_enabled(True)
        try:
            turns = iter(jsonl_source(path, follow=True, poll_seconds=0.01).turns)
            with deadline(10):
                assert next(turns) == [_event(0), _event(1)]
                with open(path, "a", encoding="utf-8") as handle:
                    handle.write(line[10:])
                self._write(path, [_event(3)], mode="a")
                assert next(turns) == [_event(2), _event(3)]
            counters = telemetry.metrics_snapshot()["counters"]
            assert not any(k.startswith("stream.source_errors") for k in counters)
        finally:
            telemetry.set_metrics_enabled(False)
            telemetry.reset_metrics()

    def test_a_plain_read_parses_a_last_line_without_newline(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(_event(0).to_json_line(), encoding="utf-8")
        assert list(jsonl_source(path)) == [_event(0)]

    def test_max_events_returns_without_a_full_batch(self, tmp_path):
        path = tmp_path / "events.jsonl"
        self._write(path, [_event(i) for i in range(5)])
        recorder = _Recorder()
        with deadline(10):
            totals = IngestPipeline(
                jsonl_source(path, follow=True),
                recorder,
                batch_size=256,
                max_events=5,
            ).run()
        assert totals.accepted == 5
        assert recorder.batches == [[_event(i) for i in range(5)]]

    def test_paced_log_hands_over_due_lines_before_polling(
        self, tmp_path, clock
    ):
        path = tmp_path / "events.jsonl"
        self._write(path, [_event(i) for i in range(3)])
        source = Pacer(speed=1.0).paced(jsonl_source(path, follow=True))
        turns = iter(source.turns)
        with deadline(10):
            assert [next(turns) for _ in range(3)] == [
                [_event(0)],
                [_event(1)],
                [_event(2)],
            ]
        assert clock.sleeps == [1.0, 1.0]
