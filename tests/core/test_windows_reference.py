"""Reference-implementation tests for the window engine.

The gather-based engine in :mod:`repro.core.windows` is the foundation
of most results, so it is checked here against a deliberately naive
O(triggers x targets) implementation under randomly generated event
streams (hypothesis).  Any disagreement is a bug in one of them.

The module also keeps the per-cell kernels (:func:`percell_baseline`,
:func:`percell_conditional`): one ``searchsorted`` pass per target node
and cell, fast enough to act as the oracle for the batch grids on the
medium fixture, where the naive reference would be too slow.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import windows
from repro.core.windows import (
    Counts,
    Scope,
    ZERO_COUNTS,
    baseline_counts_batch,
    conditional_counts_batch,
    window_scope_hits,
)
from repro.records.dataset import EventIndex
from repro.records.timeutil import (
    ALL_SPANS,
    ObservationPeriod,
    Span,
    count_windows,
    window_index,
)

PERIOD = ObservationPeriod(0.0, 120.0)
NUM_NODES = 5
RACK_OF = np.array([0, 0, 1, 1, 2])


def naive_baseline(times, nodes, num_nodes, period, span):
    """Brute-force tiled baseline."""
    n_windows = count_windows(period, span)
    successes = 0
    for node in range(num_nodes):
        for w in range(n_windows):
            lo = period.start + w * span.days
            hi = lo + span.days
            if any(
                n == node and lo <= t < hi for t, n in zip(times, nodes)
            ):
                successes += 1
    return Counts(successes, num_nodes * n_windows)


def naive_conditional(
    trig, targ, period, span, scope, rack_of=None, num_nodes=None
):
    """Brute-force conditional counts, mirroring the documented semantics."""
    successes = trials = 0
    for t0, n0 in trig:
        if t0 + span.days > period.end:
            continue  # censored
        if scope is Scope.NODE:
            trials += 1
            if any(
                n == n0 and t0 < t <= t0 + span.days for t, n in targ
            ):
                successes += 1
        else:
            if scope is Scope.RACK:
                others = [
                    m
                    for m in range(num_nodes)
                    if m != n0 and rack_of[m] == rack_of[n0]
                ]
            else:
                others = [m for m in range(num_nodes) if m != n0]
            for m in others:
                trials += 1
                if any(
                    n == m and t0 < t <= t0 + span.days for t, n in targ
                ):
                    successes += 1
    return Counts(successes, trials)


def percell_baseline(target, num_nodes, period, span, node_subset=None):
    """One tiled-baseline cell: distinct (node, tile) keys of the events."""
    times, nodes = target.times, target.nodes
    n_windows = count_windows(period, span)
    n_at_risk = num_nodes
    if node_subset is not None:
        n_at_risk = int(np.unique(node_subset).size)
        keep = np.isin(nodes, node_subset)
        times, nodes = times[keep], nodes[keep]
    idx = window_index(times, period, span)
    valid = idx >= 0
    keys = nodes[valid] * np.int64(n_windows) + idx[valid]
    return Counts(int(np.unique(keys).size), n_at_risk * n_windows)


def percell_conditional(
    trigger, target, period, span, scope=Scope.NODE, rack_of=None, num_nodes=None
):
    """One conditional cell, one target-node block at a time.

    In-scope hits are counted per target node over every (in-rack)
    trigger, and the trigger's own node is subtracted again: that is
    exactly the NODE-scope hit count.
    """
    alive = trigger.times + span.days <= period.end
    trig_t, trig_n = trigger.times[alive], trigger.nodes[alive]
    if not trig_t.size:
        return ZERO_COUNTS
    blocks = {
        int(node): target.times[target.nodes == node]
        for node in np.unique(target.nodes)
    }

    def hit(node, starts):
        block = blocks.get(int(node), target.times[:0])
        lo = np.searchsorted(block, starts, side="right")
        hi = np.searchsorted(block, starts + span.days, side="right")
        return hi > lo

    own = np.zeros(trig_t.size, dtype=bool)
    for node in np.unique(trig_n):
        sel = trig_n == node
        own[sel] = hit(node, trig_t[sel])
    if scope is Scope.NODE:
        return Counts(int(own.sum()), int(trig_t.size))
    if scope is Scope.RACK:
        rack_sizes = np.bincount(rack_of)
        trials = int((rack_sizes[rack_of[trig_n]] - 1).sum())
    else:
        trials = int(trig_t.size) * (num_nodes - 1)
    if not trials:
        return ZERO_COUNTS
    successes = -int(own.sum())
    for node in blocks:
        starts = trig_t
        if scope is Scope.RACK:
            starts = trig_t[rack_of[trig_n] == rack_of[node]]
        successes += int(hit(node, starts).sum())
    return Counts(successes, trials)


events_strategy = st.lists(
    st.tuples(
        # Quarter-day times make ties and ``T == t + span`` common.
        st.one_of(
            st.floats(0.0, 119.5, allow_nan=False),
            st.integers(0, 4 * 119).map(lambda q: q / 4.0),
        ),
        st.integers(0, NUM_NODES - 1),
    ),
    min_size=0,
    max_size=25,
)


def to_arrays(events):
    events = sorted(events)
    t = np.array([e[0] for e in events], dtype=float)
    n = np.array([e[1] for e in events], dtype=np.int64)
    return t, n


class TestAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(events=events_strategy)
    def test_baseline_matches(self, events):
        t, n = to_arrays(events)
        grid = baseline_counts_batch(
            [EventIndex(t, n)], NUM_NODES, PERIOD, ALL_SPANS
        )
        for k, span in enumerate(ALL_SPANS):
            slow = naive_baseline(t, n, NUM_NODES, PERIOD, span)
            assert grid[0][k] == slow
            assert percell_baseline(EventIndex(t, n), NUM_NODES, PERIOD, span) == slow

    @settings(max_examples=60, deadline=None)
    @given(
        trig=events_strategy,
        targ=events_strategy,
        scope=st.sampled_from([Scope.NODE, Scope.RACK, Scope.SYSTEM]),
    )
    def test_conditional_matches(self, trig, targ, scope):
        grid = conditional_counts_batch(
            [EventIndex(*to_arrays(trig))],
            [EventIndex(*to_arrays(targ))],
            PERIOD,
            ALL_SPANS,
            NUM_NODES,
            scope=scope,
            rack_of=RACK_OF if scope is Scope.RACK else None,
        )
        for k, span in enumerate(ALL_SPANS):
            assert grid[0][0][k] == naive_conditional(
                sorted(trig),
                sorted(targ),
                PERIOD,
                span,
                scope,
                rack_of=RACK_OF,
                num_nodes=NUM_NODES,
            )

    @settings(max_examples=40, deadline=None)
    @given(events=events_strategy)
    def test_self_conditional_matches(self, events):
        """Trigger stream == target stream (the paper's common case)."""
        index = EventIndex(*to_arrays(events))
        fast = conditional_counts_batch(
            [index], [index], PERIOD, [Span.WEEK], NUM_NODES
        )[0][0][0]
        slow = naive_conditional(
            sorted(events), sorted(events), PERIOD, Span.WEEK, Scope.NODE
        )
        assert fast == slow

    @settings(max_examples=40, deadline=None)
    @given(
        trig=events_strategy,
        targ=events_strategy,
        span=st.sampled_from([Span.DAY, Span.WEEK]),
        scope=st.sampled_from([Scope.NODE, Scope.RACK, Scope.SYSTEM]),
    )
    def test_percell_oracle_matches(self, trig, targ, span, scope):
        """The per-cell oracle of the batch-grid tests is itself right."""
        fast = percell_conditional(
            EventIndex(*to_arrays(trig)),
            EventIndex(*to_arrays(targ)),
            PERIOD,
            span,
            scope=scope,
            rack_of=RACK_OF,
            num_nodes=NUM_NODES,
        )
        slow = naive_conditional(
            sorted(trig),
            sorted(targ),
            PERIOD,
            span,
            scope,
            rack_of=RACK_OF,
            num_nodes=NUM_NODES,
        )
        assert fast == slow


def _gathered_counts(trig, targ, span_index, scope, hits):
    """Reduce ``window_scope_hits`` output to one censored Counts cell."""
    span = ALL_SPANS[span_index]
    successes = trials = 0
    for i, (t0, n0) in enumerate(trig):
        if t0 + span.days > PERIOD.end:
            continue
        if scope is Scope.NODE:
            trials += 1
            successes += int(hits.own[span_index, 0, i])
        elif scope is Scope.SYSTEM:
            trials += NUM_NODES - 1
            successes += int(hits.system[span_index, 0, i])
        else:
            trials += int((RACK_OF == RACK_OF[n0]).sum()) - 1
            successes += int(hits.rack[span_index, 0, i])
    return Counts(successes, trials)


class TestGatherKernelAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(
        trig=events_strategy,
        targ=events_strategy,
        chunk=st.sampled_from([windows.GATHER_CHUNK, 1, 4]),
    )
    def test_every_scope_and_span_matches(self, trig, targ, chunk):
        """Unsorted triggers; small chunks force the halving path."""
        tt = np.array([e[0] for e in trig], dtype=float)
        tn = np.array([e[1] for e in trig], dtype=np.int64)
        gt, gn = to_arrays(targ)
        with mock.patch.object(windows, "GATHER_CHUNK", chunk):
            hits = window_scope_hits(
                tt,
                tn,
                [(gt, gn)],
                [span.days for span in ALL_SPANS],
                NUM_NODES,
                RACK_OF,
            )
        for k, span in enumerate(ALL_SPANS):
            for scope in (Scope.NODE, Scope.RACK, Scope.SYSTEM):
                assert _gathered_counts(trig, targ, k, scope, hits) == (
                    naive_conditional(
                        trig,
                        sorted(targ),
                        PERIOD,
                        span,
                        scope,
                        rack_of=RACK_OF,
                        num_nodes=NUM_NODES,
                    )
                )


@st.composite
def system_strategy(draw):
    """One system for the cross-system gather: its node count (1-node
    systems included), an optional rack layout, quarter-day target
    streams (ties are common), triggers and a ``wide`` mask."""
    num_nodes = draw(st.integers(1, 5))
    rack_of = draw(
        st.one_of(
            st.none(),
            st.lists(
                st.integers(0, 2), min_size=num_nodes, max_size=num_nodes
            ).map(lambda racks: np.array(racks, dtype=np.int64)),
        )
    )
    quarter_days = st.tuples(
        st.integers(0, 4 * 40).map(lambda q: q / 4.0),
        st.integers(0, num_nodes - 1),
    )
    n_targets = draw(st.integers(1, 3))
    targets = [
        to_arrays(draw(st.lists(quarter_days, max_size=12)))
        for _ in range(n_targets)
    ]
    trig = draw(st.lists(quarter_days, max_size=8))
    wide = draw(st.lists(st.booleans(), min_size=n_targets, max_size=n_targets))
    return num_nodes, rack_of, targets, trig, wide


def naive_pair_hits(t0, n0, times, nodes, days, rack_of):
    """Brute-force (own, system, rack) hits of one trigger against one
    target stream: distinct nodes with an event in ``(t0, t0 + days]``."""
    hit = {n for t, n in zip(times.tolist(), nodes.tolist()) if t0 < t <= t0 + days}
    others = hit - {n0}
    in_rack = {n for n in others if rack_of is not None and rack_of[n] == rack_of[n0]}
    return n0 in hit, len(others), len(in_rack)


class TestSegmentHitsAcrossSystems:
    @settings(max_examples=80, deadline=None)
    @given(
        systems=st.lists(system_strategy(), min_size=1, max_size=4),
        chunk=st.sampled_from([windows.GATHER_CHUNK, 1, 4]),
    )
    def test_one_call_equals_one_window_scope_hits_per_system(
        self, systems, chunk
    ):
        """The stream's layout: every system's targets concatenated into
        one flat array, node ids and rack ids offset apart (a node of a
        system without a layout is its own rack), one call for all.
        Every pair must match a brute-force count, and each system's
        pairs one ``window_scope_hits`` call."""
        span_days = [span.days for span in ALL_SPANS]
        times, nodes, racks = [], [], []
        lo, hi, trig_t, trig_n, wide_pairs = [], [], [], [], []
        expected = []  # per pair and span: brute-force (own, system, rack)
        offset = node_base = rack_base = 0
        for num_nodes, rack_of, targets, trig, wide in systems:
            tt = np.array([t for t, _ in trig], dtype=float)
            tn = np.array([n for _, n in trig], dtype=np.int64)
            for (gt, gn), is_wide in zip(targets, wide):
                expected.extend(
                    [
                        naive_pair_hits(t0, n0, gt, gn, days, rack_of)
                        for days in span_days
                    ]
                    for t0, n0 in trig
                )
                lo.append(np.searchsorted(gt, tt, side="right") + offset)
                hi.append(
                    np.searchsorted(gt, tt + max(span_days), side="right")
                    + offset
                )
                trig_t.append(tt)
                trig_n.append(tn + node_base)
                wide_pairs.append(np.full(tt.size, is_wide))
                times.append(gt)
                nodes.append(gn + node_base)
                offset += gt.size
            layout = np.arange(num_nodes) if rack_of is None else rack_of
            racks.append(layout + rack_base)
            node_base += num_nodes
            rack_base += int(layout.max()) + 1
        with mock.patch.object(windows, "GATHER_CHUNK", chunk):
            hits = windows.segment_hits(
                np.concatenate(lo),
                np.concatenate(hi),
                np.concatenate(trig_t),
                np.concatenate(trig_n),
                np.concatenate(times),
                np.concatenate(nodes),
                span_days,
                node_base,
                np.concatenate(racks),
                np.concatenate(wide_pairs),
            )
        wide_pairs = np.concatenate(wide_pairs)
        for p, per_span in enumerate(expected):
            for k, (own, system, rack) in enumerate(per_span):
                assert hits.own[k, p] == own
                assert hits.system[k, p] == (system if wide_pairs[p] else 0)
                assert hits.rack[k, p] == (rack if wide_pairs[p] else 0)
        first = 0
        for num_nodes, rack_of, targets, trig, wide in systems:
            tt = np.array([t for t, _ in trig], dtype=float)
            tn = np.array([n for _, n in trig], dtype=np.int64)
            want = window_scope_hits(
                tt, tn, targets, span_days, num_nodes, rack_of, wide
            )
            pairs = slice(first, first + tt.size * len(targets))
            first = pairs.stop
            shape = want.own.shape
            assert np.array_equal(hits.own[:, pairs].reshape(shape), want.own)
            assert np.array_equal(
                hits.system[:, pairs].reshape(shape), want.system
            )
            rack = hits.rack[:, pairs].reshape(shape)
            if rack_of is None:
                assert not rack.any()
            else:
                assert np.array_equal(rack, want.rack)
