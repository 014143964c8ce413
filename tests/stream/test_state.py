"""Incremental state: dispositions, out-of-order handling, checkpoints."""

from __future__ import annotations

from bisect import bisect_right
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.core.windows import Scope, segment_hits
from repro.records.taxonomy import Category
from repro.records.timeutil import ObservationPeriod, Span
from repro.stream import (
    ANY_CODE,
    CHECKPOINT_VERSION,
    OnlineAnalysis,
    StreamAnalysisConfig,
    StreamAnalysisState,
    StreamEvent,
    StreamStateError,
    latest_checkpoint_sequence,
    load_checkpoint,
    write_checkpoint,
)
from repro.stream.state import selection_code


def _state(lateness: float = 0.0) -> StreamAnalysisState:
    state = StreamAnalysisState(StreamAnalysisConfig(lateness_days=lateness))
    state.register_system(0, 4, ObservationPeriod(0.0, 100.0), None)
    return state


def _event(
    t: float, node: int = 0, eid: str | None = None, system: int = 0
) -> StreamEvent:
    return StreamEvent(
        time=t,
        system_id=system,
        node_id=node,
        event_id=eid or f"e{t}-{node}",
        category=Category.HARDWARE,
    )


class TestDispositions:
    def test_accept_and_count(self):
        state = _state()
        stats = state.ingest([_event(1.0), _event(2.0, node=1)])
        assert stats.accepted == 2
        assert stats.touched == {0}

    def test_duplicates_dropped(self):
        state = _state(lateness=10.0)
        stats = state.ingest(
            [_event(1.0, eid="dup"), _event(1.0, eid="dup")]
        )
        assert stats.accepted == 1
        assert stats.duplicate == 1

    def test_late_events_dropped(self):
        state = _state(lateness=1.0)
        stats = state.ingest([_event(10.0), _event(8.0)])
        assert stats.accepted == 1
        assert stats.late == 1

    def test_out_of_order_within_tolerance_accepted(self):
        state = _state(lateness=5.0)
        stats = state.ingest([_event(10.0), _event(6.0)])
        assert stats.accepted == 2
        assert stats.late == 0

    def test_unknown_system_counted(self):
        state = _state()
        stats = state.ingest([_event(1.0, system=99)])
        assert stats.unknown_system == 1
        assert stats.accepted == 0

    def test_out_of_period_invalid(self):
        state = _state()
        stats = state.ingest([_event(-1.0), _event(100.0), _event(1e6)])
        # Period is [0, 100): t=-1 and t=1e6 invalid; t=100.0 invalid too
        # (events at/after period.end can never open a window).
        assert stats.invalid == 3

    def test_node_out_of_range_invalid(self):
        state = _state()
        stats = state.ingest([_event(1.0, node=4)])
        assert stats.invalid == 1

    def test_register_system_idempotent_but_shape_checked(self):
        state = _state()
        state.register_system(0, 4, ObservationPeriod(0.0, 100.0), None)
        with pytest.raises(StreamStateError):
            state.register_system(0, 8, ObservationPeriod(0.0, 100.0), None)

    def test_register_system_checks_rack_layout(self):
        period = ObservationPeriod(0.0, 100.0)
        state = StreamAnalysisState()
        state.register_system(0, 4, period, np.array([0, 0, 1, 1]))
        state.register_system(0, 4, period, [0, 0, 1, 1])  # same layout
        state.register_system(1, 4, period, None)
        for system_id, rack_of in (
            (0, np.array([0, 1, 1, 1])),  # a different layout
            (0, None),  # the layout dropped
            (1, np.array([0, 0, 1, 1])),  # a layout added
        ):
            with pytest.raises(StreamStateError, match="rack layout"):
                state.register_system(system_id, 4, period, rack_of)


class TestEventStore:
    @settings(max_examples=80, deadline=None)
    @given(
        batches=st.lists(
            st.lists(
                st.tuples(
                    st.integers(0, 12).map(lambda q: q / 4.0),
                    st.integers(0, 3),
                    st.integers(0, 1),
                ),
                max_size=12,
            ),
            max_size=6,
        )
    )
    def test_batch_merge_equals_per_event_bisect_insertion(self, batches):
        # Two systems share the flat store columns; each system's stores
        # must hold exactly what per-event bisect insertion builds.
        state = _state(lateness=100.0)
        state.register_system(1, 4, ObservationPeriod(0.0, 100.0), None)
        expected = {0: ([], []), 1: ([], [])}
        count = 0
        for batch in batches:
            events = []
            for t, n, system in batch:
                events.append(_event(t, node=n, eid=f"e{count}", system=system))
                count += 1
                times, nodes = expected[system]
                pos = bisect_right(times, t)
                times.insert(pos, t)
                nodes.insert(pos, n)
            state.ingest(events)
            for system, (times, nodes) in expected.items():
                for code in (ANY_CODE, selection_code(Category.HARDWARE)):
                    store = state.systems[system].store(code)
                    assert not store.times.flags.writeable  # shared column
                    assert len(store) == len(times)
                    assert store.times.tolist() == times
                    assert store.nodes.tolist() == nodes


class TestCounters:
    def test_same_node_week_window_counts(self):
        state = _state()
        # Trigger at t=1 on node 0; its own follow-up at t=3 lands in
        # the (1, 8] week window.  The t=3 event opens a window too,
        # with no success after it.
        state.ingest([_event(1.0), _event(3.0)])
        state.finalize()
        counts = state.systems[0].counts(Scope.NODE, None, None, Span.WEEK)
        assert counts.trials == 2
        assert counts.successes == 1

    def test_open_closed_window_boundaries(self):
        state = _state()
        # (t, t+1] day window: an event exactly at t is NOT a success,
        # one exactly at t+1 IS.
        state.ingest([_event(1.0), _event(2.0)])
        state.finalize()
        day = state.systems[0].counts(Scope.NODE, None, None, Span.DAY)
        assert day.successes == 1  # the t=2.0 hit at the closed boundary
        state2 = _state()
        state2.ingest([_event(1.0), _event(2.0 + 1e-9)])
        state2.finalize()
        day2 = state2.systems[0].counts(Scope.NODE, None, None, Span.DAY)
        assert day2.successes == 0  # just past the closed boundary

    def test_window_ending_at_the_watermark_stays_open(self):
        state = _state()
        # Watermark 2.0 after the first batch: t=1's day window (1, 2]
        # ends exactly there, so an event at t=2 can still arrive.
        state.ingest([_event(1.0), _event(2.0, node=1)])
        state.ingest([_event(2.0, node=2)])
        state.finalize()
        day = state.systems[0].counts(Scope.SYSTEM, None, None, Span.DAY)
        # Trigger t=1 sees nodes 1 and 2; the t=2 triggers see nothing.
        assert (day.successes, day.trials) == (2, 9)

    def test_censoring_excludes_windows_past_period_end(self):
        state = _state()
        # Period ends at 100: a trigger at t=99 has no complete week
        # window, so it contributes no trial at WEEK span.
        state.ingest([_event(99.0)])
        state.finalize()
        week = state.systems[0].counts(Scope.NODE, None, None, Span.WEEK)
        assert week.trials == 0
        day = state.systems[0].counts(Scope.NODE, None, None, Span.DAY)
        assert day.trials == 1  # (99, 100] still fits

    def test_baseline_counts_windows_with_events(self):
        state = _state()
        state.ingest([_event(0.5), _event(0.7), _event(30.5, node=2)])
        state.finalize()
        base = state.systems[0].baseline(None, Span.DAY)
        # Two distinct (node, day-window) keys; 4 nodes x 100 windows.
        assert base.successes == 2
        assert base.trials == 400


class TestBatchResolution:
    def test_one_gather_per_ingest_across_systems(self):
        state = _state()
        for system_id in (1, 2):
            state.register_system(
                system_id, 4, ObservationPeriod(0.0, 100.0), None
            )
        state.ingest(
            [_event(1.0, system=s, eid=f"a{s}") for s in (0, 1, 2)]
        )
        with mock.patch(
            "repro.stream.state.segment_hits", wraps=segment_hits
        ) as gather:
            # Every system's day window after t=1 becomes final at once.
            stats = state.ingest(
                [_event(3.0, system=s, eid=f"b{s}") for s in (0, 1, 2)]
            )
            assert stats.touched == {0, 1, 2}
            assert gather.call_count == 1
            state.finalize()
            assert gather.call_count == 2
        for system in state.systems.values():
            day = system.counts(Scope.NODE, None, None, Span.DAY)
            assert (day.successes, day.trials) == (0, 2)

    def test_pending_triggers_gauge_drains_on_finalize(self):
        telemetry.reset_metrics()
        telemetry.set_metrics_enabled(True)
        try:
            state = _state()
            state.ingest([_event(1.0), _event(2.0, node=1), _event(20.0)])
            gauges = telemetry.metrics_snapshot()["gauges"]
            # Each event sits in the any and the hardware store.  At
            # watermark 20 only t=20's day and week windows are open,
            # but every month window is.
            assert gauges["stream.pending_triggers{span=day}"] == 2
            assert gauges["stream.pending_triggers{span=week}"] == 2
            assert gauges["stream.pending_triggers{span=month}"] == 6
            state.finalize()
            gauges = telemetry.metrics_snapshot()["gauges"]
            for span in state.config.spans:
                assert gauges[f"stream.pending_triggers{{span={span.value}}}"] == 0
        finally:
            telemetry.set_metrics_enabled(False)
            telemetry.reset_metrics()


def _rewrite_checkpoint(directory, sequence, edit_meta=None, edit_arrays=None):
    """Apply ``edit_meta`` / ``edit_arrays`` to one written checkpoint."""
    import json

    meta_path = directory / f"ckpt-{sequence:06d}.meta.json"
    npz_path = directory / f"ckpt-{sequence:06d}.state.npz"
    if edit_meta is not None:
        payload = json.loads(meta_path.read_text())
        edit_meta(payload["systems"][0])
        meta_path.write_text(json.dumps(payload))
    if edit_arrays is not None:
        with np.load(npz_path) as payload:
            arrays = {key: payload[key] for key in payload.files}
        edit_arrays(arrays)
        with open(npz_path, "wb") as handle:
            np.savez(handle, **arrays)


class TestCheckpointFiles:
    def test_round_trip_preserves_digest(self, tmp_path):
        state = _state(lateness=3.0)
        state.ingest([_event(1.0), _event(5.0, node=2), _event(4.0, node=1)])
        write_checkpoint(state, tmp_path)
        restored = load_checkpoint(tmp_path)
        assert restored.digest() == state.digest()

    def test_sequence_advances_and_prunes(self, tmp_path):
        state = _state()
        for t in (1.0, 2.0, 3.0):
            state.ingest([_event(t)])
            write_checkpoint(state, tmp_path, keep=2)
        assert latest_checkpoint_sequence(tmp_path) == 3
        metas = sorted(p.name for p in tmp_path.glob("ckpt-*.meta.json"))
        assert metas == ["ckpt-000002.meta.json", "ckpt-000003.meta.json"]

    def test_version_mismatch_rejected(self, tmp_path):
        import json

        state = _state()
        state.ingest([_event(1.0)])
        info = write_checkpoint(state, tmp_path)
        meta_path = tmp_path / f"ckpt-{info.sequence:06d}.meta.json"
        payload = json.loads(meta_path.read_text())
        payload["version"] = CHECKPOINT_VERSION + 1
        meta_path.write_text(json.dumps(payload))
        with pytest.raises(StreamStateError):
            load_checkpoint(tmp_path)

    def test_config_mismatch_rejected(self, tmp_path):
        state = _state(lateness=1.0)
        state.ingest([_event(1.0)])
        write_checkpoint(state, tmp_path)
        with pytest.raises(StreamStateError):
            load_checkpoint(tmp_path, StreamAnalysisConfig(lateness_days=2.0))

    def test_truncated_arrays_rejected(self, tmp_path):
        state = _state()
        state.ingest([_event(1.0), _event(2.0, node=3)])
        info = write_checkpoint(state, tmp_path)
        npz_path = tmp_path / f"ckpt-{info.sequence:06d}.state.npz"
        payload = npz_path.read_bytes()
        npz_path.write_bytes(payload[: len(payload) // 2])
        with pytest.raises(StreamStateError, match="unreadable or incomplete"):
            load_checkpoint(tmp_path)

    def test_corrupt_arrays_rejected(self, tmp_path):
        state = _state()
        state.ingest([_event(1.0)])
        info = write_checkpoint(state, tmp_path)
        npz_path = tmp_path / f"ckpt-{info.sequence:06d}.state.npz"
        npz_path.write_bytes(b"not a zip archive at all")
        with pytest.raises(StreamStateError, match="unreadable or incomplete"):
            load_checkpoint(tmp_path)

    def test_missing_meta_key_rejected(self, tmp_path):
        import json

        state = _state()
        state.ingest([_event(1.0)])
        info = write_checkpoint(state, tmp_path)
        meta_path = tmp_path / f"ckpt-{info.sequence:06d}.meta.json"
        payload = json.loads(meta_path.read_text())
        del payload["systems"][0]["seen"]
        meta_path.write_text(json.dumps(payload))
        with pytest.raises(StreamStateError, match="seen"):
            load_checkpoint(tmp_path)

    def test_missing_array_rejected(self, tmp_path):
        import numpy as np

        state = _state()
        state.ingest([_event(1.0)])
        info = write_checkpoint(state, tmp_path)
        npz_path = tmp_path / f"ckpt-{info.sequence:06d}.state.npz"
        with np.load(npz_path) as payload:
            arrays = {key: payload[key] for key in payload.files}
        del arrays["s0.k.any.times"]
        with open(npz_path, "wb") as handle:
            np.savez(handle, **arrays)
        with pytest.raises(StreamStateError, match="s0.k.any.times"):
            load_checkpoint(tmp_path)

    def test_checkpoint_writes_are_byte_stable(self, tmp_path):
        state = _state()
        state.ingest([_event(1.0), _event(2.0, node=3)])
        a = tmp_path / "a"
        b = tmp_path / "b"
        write_checkpoint(state, a)
        write_checkpoint(state, b)
        meta_a = (a / "ckpt-000001.meta.json").read_bytes()
        meta_b = (b / "ckpt-000001.meta.json").read_bytes()
        assert meta_a == meta_b


    @pytest.fixture
    def written(self, tmp_path):
        state = _state(lateness=5.0)
        state.ingest([_event(1.0), _event(2.0, node=3), _event(30.0, node=1)])
        return tmp_path, write_checkpoint(state, tmp_path).sequence

    def _rejects(self, written, match, edit_meta=None, edit_arrays=None):
        directory, sequence = written
        load_checkpoint(directory)  # intact before the edit
        _rewrite_checkpoint(directory, sequence, edit_meta, edit_arrays)
        with pytest.raises(StreamStateError, match=match):
            load_checkpoint(directory)

    def test_pointer_past_store_rejected(self, written):
        def edit(system):
            system["resolved"][0][2] = 4  # the any store holds 3 events

        self._rejects(written, "s0 resolved does not match", edit_meta=edit)

    def test_pointer_off_its_watermark_rejected(self, written):
        def edit(system):
            # high 30 and lateness 5: the any store's day windows after
            # 1.0 and 2.0 are final, so its day pointer is 2.
            assert system["resolved"][0][1:] == ["day", 2]
            system["resolved"][0][2] = 1

        self._rejects(written, "s0 resolved does not match", edit_meta=edit)

    def test_successes_above_trials_rejected(self, written):
        def edit(system):
            cell = system["cond"][0]
            cell[4] = cell[5] + 1

        self._rejects(written, "s0 cond does not match", edit_meta=edit)

    def test_unsorted_store_rejected(self, written):
        def edit(arrays):
            arrays["s0.k.any.times"] = arrays["s0.k.any.times"][::-1].copy()

        self._rejects(written, "not sorted", edit_arrays=edit)

    def test_node_beyond_system_rejected(self, written):
        def edit(arrays):
            arrays["s0.k.any.nodes"][-1] = 4  # the system has 4 nodes

        self._rejects(written, "node ids", edit_arrays=edit)

    def test_store_outside_period_rejected(self, written):
        def edit(arrays):
            arrays["s0.k.any.times"][-1] = 100.0  # the period is [0, 100)

        self._rejects(written, "outside the period", edit_arrays=edit)

    def test_baseline_key_beyond_tiles_rejected(self, written):
        def edit(arrays):
            # 4 nodes x 100 day tiles: keys lie below 400.
            arrays["s0.b.any.day"][-1] = 400

        self._rejects(written, r"s0\.b\.any\.day does not match", edit_arrays=edit)


class TestConfig:
    def test_negative_lateness_rejected(self):
        with pytest.raises(StreamStateError):
            StreamAnalysisConfig(lateness_days=-1.0)

    def test_wide_targets_must_be_tracked_selections(self):
        with pytest.raises(StreamStateError):
            StreamAnalysisConfig(
                selections=(None,), wide_targets=(Category.HARDWARE,)
            )

    def test_risk_horizon_must_be_tracked(self):
        state = StreamAnalysisState(
            StreamAnalysisConfig(spans=(Span.DAY,))
        )
        state.register_system(0, 2, ObservationPeriod(0.0, 10.0), None)
        from repro.stream import StreamAnalysisError

        with pytest.raises(StreamAnalysisError):
            OnlineAnalysis(state, risk_horizon=Span.WEEK)
