"""Incremental resolution against the naive window reference.

Random small event streams go through :class:`StreamAnalysisState` in
random micro-batch sizes, optionally shuffled within the lateness
budget.  After ``finalize`` every NODE, RACK and SYSTEM cell and every
baseline cell must equal the brute-force reference of
``tests/core/test_windows_reference.py`` -- whatever the batching, the
delivery order or the ties.

The generator aims at the edges of the window semantics: timestamps on
a quarter-day grid, so simultaneous events across nodes and categories
are common; trigger times with ``t + span == period.end`` exactly; a
1-node system and a system without a rack layout.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.windows import Scope
from repro.records.taxonomy import all_categories
from repro.records.timeutil import ALL_SPANS, ObservationPeriod
from repro.stream import StreamAnalysisState, StreamEvent

from tests.core.test_windows_reference import naive_baseline, naive_conditional

PERIOD = ObservationPeriod(0.0, 40.0)
#: system id -> rack layout (``None``: no layout); the node count is
#: the layout's length, or 4 for the layout-less system.
SYSTEMS = {
    0: np.array([0]),
    1: None,
    2: np.array([0, 0, 1, 1, 2]),
}
SELECTIONS = (None, *all_categories())

# Trigger times whose day / week / month window ends exactly at the
# period end, and their neighbours a quarter-day earlier.
_BOUNDARIES = [39.0, 33.0, 10.0, 38.75, 32.75, 9.75]

event_strategy = st.tuples(
    st.sampled_from(sorted(SYSTEMS)),
    st.one_of(
        st.sampled_from(_BOUNDARIES),
        st.integers(0, 4 * 40 - 1).map(lambda q: q / 4.0),
    ),
    st.integers(0, 4),
    st.sampled_from(SELECTIONS),
    st.integers(0, 11),
)


def _num_nodes(system_id: int) -> int:
    rack_of = SYSTEMS[system_id]
    return 4 if rack_of is None else int(rack_of.size)


def _events(raw) -> list[StreamEvent]:
    return [
        StreamEvent(
            time=t,
            system_id=system_id,
            node_id=node % _num_nodes(system_id),
            event_id=f"e{i}",
            category=category,
        )
        for i, (system_id, t, node, category, _) in enumerate(raw)
    ]


def _selected(events, system_id, selection):
    return sorted(
        (ev.time, ev.node_id)
        for ev in events
        if ev.system_id == system_id
        and (selection is None or ev.category is selection)
    )


class TestIncrementalResolutionOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        raw=st.lists(event_strategy, min_size=1, max_size=24),
        lateness=st.sampled_from([0.0, 3.0]),
        data=st.data(),
    )
    def test_every_cell_equals_reference(self, raw, lateness, data):
        events = _events(raw)
        # Delivery order: time plus a jitter below the lateness budget,
        # so nothing arrives late yet ties and inversions both occur.
        jitter = [j / 4.0 if lateness else 0.0 for *_, j in raw]
        delivery = [
            events[i]
            for i in sorted(
                range(len(events)), key=lambda i: (events[i].time + jitter[i], i)
            )
        ]
        state = StreamAnalysisState(lateness)
        for system_id, rack_of in SYSTEMS.items():
            state.register_system(
                system_id, _num_nodes(system_id), PERIOD, rack_of
            )
        start = 0
        while start < len(delivery):
            size = data.draw(st.integers(1, len(delivery)), label="batch")
            stats = state.ingest(delivery[start : start + size])
            assert stats.late == stats.duplicate == stats.invalid == 0
            start += size
        state.finalize()

        for system_id, rack_of in SYSTEMS.items():
            system = state.systems[system_id]
            num_nodes = _num_nodes(system_id)
            for code, store in system.stores.items():
                for span in ALL_SPANS:
                    assert system.resolved[(code, span.value)] == len(store)
            for span in ALL_SPANS:
                for target in SELECTIONS:
                    targ = _selected(events, system_id, target)
                    assert system.baseline(target, span) == naive_baseline(
                        [t for t, _ in targ],
                        [n for _, n in targ],
                        num_nodes,
                        PERIOD,
                        span,
                    )
                for trigger in SELECTIONS:
                    trig = _selected(events, system_id, trigger)
                    for target in SELECTIONS:
                        targ = _selected(events, system_id, target)
                        scopes = [Scope.NODE]
                        if target is None:
                            scopes.append(Scope.SYSTEM)
                            if rack_of is not None:
                                scopes.append(Scope.RACK)
                        for scope in scopes:
                            got = system.counts(scope, trigger, target, span)
                            want = naive_conditional(
                                trig,
                                targ,
                                PERIOD,
                                span,
                                scope,
                                rack_of=rack_of,
                                num_nodes=num_nodes,
                            )
                            assert got == want, (
                                system_id, scope, trigger, target, span
                            )
