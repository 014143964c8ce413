"""Stream resolution against its per-copy oracle, after every batch.

:meth:`StreamAnalysisState._resolve` gathers each distinct (system,
time, node) trigger once and copies the hits to every trigger entry
that holds it.  A second state runs the per-copy resolution of
``tests/stream/reference_resolve.py`` on the same stream; after every
micro-batch both must hold equal counters, resolution pointers and
digests, and fit the same risk model -- not only after ``finalize``.

The streams aim at what the shared gather must get right: an event
and a twin at the same time and node in another (or the same)
category, uncategorised events that live in the ANY store only,
quarter-day ties, a 1-node system, a system without a rack layout,
delivery shuffled within the lateness budget, and a checkpoint/restore
in the middle of the stream.
"""

from __future__ import annotations

import tempfile
import types

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.windows import Scope
from repro.records.taxonomy import all_categories
from repro.records.timeutil import ALL_SPANS, ObservationPeriod
from repro.stream import (
    StreamAnalysisConfig,
    StreamAnalysisState,
    StreamEvent,
    load_checkpoint,
    risk_model_from_state,
    write_checkpoint,
)

from tests.stream.reference_resolve import (
    reference_pooled,
    reference_resolve,
    reference_risk_model,
)

PERIOD = ObservationPeriod(0.0, 40.0)
#: system id -> rack layout (``None``: no layout, 4 nodes).
SYSTEMS = {
    0: np.array([0]),
    1: None,
    2: np.array([0, 0, 1, 1, 2]),
}
SELECTIONS = (None, *all_categories())

event_strategy = st.tuples(
    st.sampled_from(sorted(SYSTEMS)),
    st.one_of(
        # Windows ending exactly at the period end, and a quarter-day
        # before.
        st.sampled_from([39.0, 33.0, 10.0, 38.75, 32.75, 9.75]),
        st.integers(0, 4 * 40 - 1).map(lambda q: q / 4.0),
    ),
    st.integers(0, 4),
    st.sampled_from(SELECTIONS),
    # A twin at the same time and node, in this category.
    st.one_of(st.none(), st.sampled_from(SELECTIONS)),
    st.integers(0, 11),
)


def _num_nodes(system_id: int) -> int:
    rack_of = SYSTEMS[system_id]
    return 4 if rack_of is None else int(rack_of.size)


def _stream(raw, lateness: float) -> list[StreamEvent]:
    """The events of ``raw`` (twins included) in delivery order: time
    plus a jitter below the lateness budget, so nothing arrives late."""
    keyed = []
    for i, (system_id, t, node, category, twin, jitter) in enumerate(raw):
        node %= _num_nodes(system_id)
        delay = jitter / 4.0 if lateness else 0.0
        for k, cat in enumerate((category,) if twin is None else (category, twin)):
            event = StreamEvent(
                time=t,
                system_id=system_id,
                node_id=node,
                event_id=f"e{i}.{k}",
                category=cat,
            )
            keyed.append((t + delay, len(keyed), event))
    return [event for *_, event in sorted(keyed)]


def _fresh(lateness: float) -> StreamAnalysisState:
    state = StreamAnalysisState(StreamAnalysisConfig(lateness_days=lateness))
    for system_id, rack_of in SYSTEMS.items():
        state.register_system(system_id, _num_nodes(system_id), PERIOD, rack_of)
    return state


def _as_reference(state: StreamAnalysisState) -> StreamAnalysisState:
    state._resolve = types.MethodType(reference_resolve, state)
    return state


def _restored(state: StreamAnalysisState, directory: str) -> StreamAnalysisState:
    write_checkpoint(state, directory)
    return load_checkpoint(directory, state.config)


def _assert_same(state: StreamAnalysisState, reference: StreamAnalysisState) -> None:
    assert np.array_equal(state._node_cells, reference._node_cells)
    assert np.array_equal(state._wide_cells, reference._wide_cells)
    assert np.array_equal(state._resolved, reference._resolved)
    assert state.digest() == reference.digest()
    for span in ALL_SPANS:
        pooled = state.pooled_any_target(span)
        for row, scope in enumerate((Scope.NODE, Scope.SYSTEM, Scope.RACK)):
            for i, trigger in enumerate(SELECTIONS):
                counts = reference_pooled(reference, scope, trigger, span)
                assert pooled[row, i].tolist() == [counts.successes, counts.trials]
        assert risk_model_from_state(state, span) == reference_risk_model(
            reference, span
        )


class TestResolveOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        raw=st.lists(event_strategy, min_size=1, max_size=20),
        lateness=st.sampled_from([0.0, 3.0]),
        data=st.data(),
    )
    def test_every_batch_equals_per_copy_reference(self, raw, lateness, data):
        delivery = _stream(raw, lateness)
        state, reference = _fresh(lateness), _as_reference(_fresh(lateness))
        restore_at = data.draw(
            st.one_of(st.none(), st.integers(0, len(delivery))), label="restore"
        )
        start = 0
        with tempfile.TemporaryDirectory() as scratch:
            while start < len(delivery):
                if restore_at is not None and start >= restore_at:
                    state = _restored(state, f"{scratch}/state")
                    reference = _as_reference(
                        _restored(reference, f"{scratch}/reference")
                    )
                    restore_at = None
                size = data.draw(st.integers(1, len(delivery)), label="batch")
                batch = delivery[start : start + size]
                stats = state.ingest(batch)
                assert stats.late == stats.duplicate == stats.invalid == 0
                assert reference.ingest(batch) == stats
                _assert_same(state, reference)
                start += size
        state.finalize()
        reference.finalize()
        _assert_same(state, reference)
        assert not (np.diff(state._bounds)[:, None] - state._resolved).any()

    def test_twins_share_one_gather(self, monkeypatch):
        """An event and its category twin on the same node and time
        resolve through one gather row set, not one per copy."""
        import repro.stream.state as state_module

        pairs = []
        kernel = state_module.segment_hits

        def counting(lo, *args, **kwargs):
            pairs.append(lo.size)
            return kernel(lo, *args, **kwargs)

        monkeypatch.setattr(state_module, "segment_hits", counting)
        category = all_categories()[1]
        state = _fresh(0.0)
        state.ingest(
            [
                StreamEvent(1.0, 2, 0, "a", category=category),
                StreamEvent(1.0, 2, 0, "b", category=category),
                StreamEvent(1.0, 2, 0, "c", category=None),
            ]
        )
        state.finalize()
        # One distinct trigger against each of the system's stores.
        assert pairs == [len(SELECTIONS)]
        # Each copy still counts: the three ANY entries are three
        # any -> any trials at every span.
        cells = state.systems[2].conditional_cells(Scope.NODE)
        assert cells[0, 0, :, 1].tolist() == [3, 3, 3]
