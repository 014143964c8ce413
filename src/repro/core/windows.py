"""The conditional/baseline window-probability engine.

Nearly every figure of the paper compares two probabilities:

* the **baseline**: the probability that a random node experiences a
  qualifying failure in a *random* day/week/month.  We define it by
  tiling each system's observation period into non-overlapping windows
  and computing the fraction of (node, window) tiles containing at least
  one qualifying event -- the natural unbiased estimator (trailing
  partial windows are discarded; an ablation bench compares against
  sliding windows);
* the **conditional**: the probability that a qualifying failure occurs
  in the window *following a trigger event*, at one of three spatial
  scopes -- the same node (Section III-A), another node of the same rack
  (III-B), or another node of the same system (III-C).  Triggers whose
  full window would overrun the observation period are censored
  (excluded), so every counted trigger had a complete window at risk.
  Simultaneous events (identical timestamps, e.g. one power outage
  recording outages on many nodes at once) do not count as follow-ups of
  each other: the window is the *open-closed* interval ``(t, t + span]``.

Everything here is expressed over plain ``(times, node_ids)`` event
arrays, so the same engine serves failures, failure subsets (by category
or subtype) and maintenance events.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..records.dataset import EventIndex
from ..records.timeutil import ObservationPeriod, Span, count_windows, window_index
from ..stats.proportion import (
    ProportionEstimate,
    TwoSampleResult,
    two_sample_z_test,
    wilson_interval,
)
from ..telemetry import counter_add


class WindowAnalysisError(ValueError):
    """Raised on inconsistent event arrays or scopes."""


class Scope(enum.Enum):
    """Spatial granularity of a conditional window query."""

    NODE = "node"      # qualifying events on the trigger's own node
    RACK = "rack"      # on *other* nodes of the trigger's rack
    SYSTEM = "system"  # on *other* nodes of the trigger's system

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True, slots=True)
class Counts:
    """Raw (successes, trials) counts behind a probability estimate.

    Counts from several systems can be pooled with ``+`` before turning
    them into estimates, which is how group-level (group-1 / group-2)
    figures aggregate.
    """

    successes: int
    trials: int

    def __post_init__(self) -> None:
        if self.trials < 0 or self.successes < 0 or self.successes > self.trials:
            raise WindowAnalysisError(
                f"invalid counts {self.successes}/{self.trials}"
            )

    def __add__(self, other: "Counts") -> "Counts":
        return Counts(self.successes + other.successes, self.trials + other.trials)

    def estimate(self, confidence: float = 0.95) -> ProportionEstimate:
        """Wilson-interval estimate of the underlying probability."""
        return wilson_interval(self.successes, self.trials, confidence)


ZERO_COUNTS = Counts(0, 0)


@dataclass(frozen=True, slots=True)
class WindowComparison:
    """A conditional-vs-baseline probability comparison (one figure bar).

    Attributes:
        span: window length used.
        conditional: probability after the trigger, with CI.
        baseline: random-window probability, with CI.
        test: two-sample z-test of conditional vs baseline.
        factor: conditional / baseline -- the figure annotation (NaN when
            the baseline is zero or either side had no trials).
    """

    span: Span
    conditional: ProportionEstimate
    baseline: ProportionEstimate
    test: TwoSampleResult
    factor: float


def _check_events(times: np.ndarray, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    times = np.asarray(times, dtype=float)
    nodes = np.asarray(nodes, dtype=np.int64)
    if times.ndim != 1 or times.shape != nodes.shape:
        raise WindowAnalysisError("times and node ids must be matching 1-D arrays")
    if times.size and np.any(np.diff(times) < 0):
        order = np.argsort(times, kind="stable")
        times, nodes = times[order], nodes[order]
    return times, nodes


def baseline_counts(
    target_times: np.ndarray,
    target_nodes: np.ndarray,
    num_nodes: int,
    period: ObservationPeriod,
    span: Span,
    node_subset: np.ndarray | None = None,
) -> Counts:
    """Tiled-window baseline counts for "a random node in a random window".

    Args:
        target_times / target_nodes: the qualifying event stream.
        num_nodes: node count of the system.
        period: observation period.
        span: window length.
        node_subset: restrict the trials (and events) to these nodes --
            used e.g. for "rest of the nodes" baselines in Section IV.

    Returns:
        ``Counts(successes=#(node, window) tiles with >= 1 event,
        trials=#nodes * #windows)``.
    """
    if num_nodes < 1:
        raise WindowAnalysisError(f"num_nodes must be >= 1, got {num_nodes}")
    counter_add("windows.baseline_cells", 1, path="percell")
    times, nodes = _check_events(target_times, target_nodes)
    n_windows = count_windows(period, span)
    if node_subset is None:
        n_nodes_at_risk = num_nodes
    else:
        node_subset = np.asarray(node_subset, dtype=np.int64)
        if node_subset.size == 0:
            raise WindowAnalysisError("node_subset must be non-empty")
        n_nodes_at_risk = int(np.unique(node_subset).size)
        keep = np.isin(nodes, node_subset)
        times, nodes = times[keep], nodes[keep]
    idx = window_index(times, period, span)
    valid = idx >= 0
    # Distinct (node, window) pairs containing at least one event.
    keys = nodes[valid] * np.int64(n_windows) + idx[valid]
    successes = int(np.unique(keys).size)
    return Counts(successes, n_nodes_at_risk * n_windows)


def conditional_counts(
    trigger_times: np.ndarray | None = None,
    trigger_nodes: np.ndarray | None = None,
    target_times: np.ndarray | None = None,
    target_nodes: np.ndarray | None = None,
    period: ObservationPeriod | None = None,
    span: Span | None = None,
    scope: Scope = Scope.NODE,
    rack_of: np.ndarray | None = None,
    num_nodes: int | None = None,
    target_index: EventIndex | None = None,
    trigger_index: EventIndex | None = None,
) -> Counts:
    """Conditional counts at node, rack or system scope.

    The follow-up window is ``(t, t + span]``, open at the trigger time
    (the trigger itself, and any simultaneous events, never count as
    their own follow-up).  Triggers with ``t + span > period.end`` are
    censored out of the trials.

    The unit at risk matches the paper's phrasing "the probability that
    *a node* fails in the window following ...":

    * NODE scope -- one trial per trigger; success when the trigger's
      *own* node has a qualifying event in the window.
    * RACK scope -- one trial per (trigger, other node in the trigger's
      rack) pair; success when that node has a qualifying event in the
      window.  Requires ``rack_of``.
    * SYSTEM scope -- one trial per (trigger, other node of the system)
      pair; requires ``num_nodes``.

    Counting *pairs* (rather than "any other node fails") is essential:
    in a 1024-node system some node almost surely fails every week, so
    the any-node probability saturates at 1 and carries no information,
    whereas the per-node probability reproduces the paper's 2.04% ->
    2.68% system-level result.

    Args:
        trigger_times / trigger_nodes: trigger event stream.
        target_times / target_nodes: qualifying (target) event stream.
        period: observation period.
        span: window length.
        scope: NODE, RACK or SYSTEM.
        rack_of: node -> rack id mapping, required for RACK scope.
        num_nodes: system node count, required for RACK/SYSTEM scope.
        target_index: pre-built index of the target stream (e.g. from
            :meth:`repro.records.dataset.FailureTable.events`).  This is
            the preferred, index-first spelling; passing the redundant
            ``target_times`` / ``target_nodes`` arrays alongside it is
            deprecated (they were silently ignored in older releases).
        trigger_index: pre-built index of the trigger stream; preferred
            over ``trigger_times`` / ``trigger_nodes`` for the same
            reason.
    """
    if period is None or span is None:
        raise WindowAnalysisError("period and span are required")
    counter_add("windows.conditional_cells", 1, path="percell")
    if trigger_index is not None:
        if trigger_times is not None or trigger_nodes is not None:
            warnings.warn(
                "trigger_times/trigger_nodes are ignored when trigger_index "
                "is given; pass only trigger_index",
                DeprecationWarning,
                stacklevel=2,
            )
        trig_t, trig_n = trigger_index.times, trigger_index.nodes
    else:
        if trigger_times is None or trigger_nodes is None:
            raise WindowAnalysisError(
                "need trigger_times/trigger_nodes or a trigger_index"
            )
        trig_t, trig_n = _check_events(trigger_times, trigger_nodes)
    if target_index is not None:
        if target_times is not None or target_nodes is not None:
            warnings.warn(
                "target_times/target_nodes are ignored when target_index "
                "is given; pass only target_index",
                DeprecationWarning,
                stacklevel=2,
            )
    else:
        if target_times is None or target_nodes is None:
            raise WindowAnalysisError(
                "need target_times/target_nodes or a target_index"
            )
        target_index = EventIndex(*_check_events(target_times, target_nodes))

    # Censor triggers without a complete follow-up window.
    alive = trig_t + span.days <= period.end
    trig_t, trig_n = trig_t[alive], trig_n[alive]
    n_triggers = int(trig_t.size)
    if n_triggers == 0:
        return ZERO_COUNTS

    own_counts = _per_node_window_counts(trig_t, trig_n, target_index, span)
    if scope is Scope.NODE:
        return Counts(int((own_counts > 0).sum()), n_triggers)

    if num_nodes is None:
        raise WindowAnalysisError(f"{scope} scope requires num_nodes")
    if scope is Scope.RACK:
        if rack_of is None:
            raise WindowAnalysisError("RACK scope requires a rack_of mapping")
        rack_of = np.asarray(rack_of, dtype=np.int64)
        if rack_of.shape != (num_nodes,):
            raise WindowAnalysisError(
                "rack_of must map every node of the system to a rack"
            )
        rack_sizes = np.bincount(rack_of, minlength=int(rack_of.max()) + 1)
        trig_racks = rack_of[trig_n]
        trials = int((rack_sizes[trig_racks] - 1).sum())
    else:
        trials = n_triggers * (num_nodes - 1)
    if trials == 0:
        return ZERO_COUNTS

    # successes = sum over triggers of the number of distinct *other*
    # in-scope nodes with >= 1 event in the trigger's window.  Decompose
    # into all in-scope nodes (per target-node block, vectorised over the
    # relevant triggers) minus the trigger's own node, which is exactly
    # the NODE-scope hit count already computed above.
    successes = -int((own_counts > 0).sum())
    if scope is Scope.RACK:
        # Group triggers by rack once; each target node then queries only
        # its rack's triggers.
        order = np.argsort(trig_racks, kind="stable")
        grouped_t = trig_t[order]
        grouped_racks = trig_racks[order]
        n_racks = int(rack_sizes.size)
        rack_starts = np.zeros(n_racks + 1, dtype=np.int64)
        np.cumsum(np.bincount(grouped_racks, minlength=n_racks), out=rack_starts[1:])
        for node in target_index.event_nodes():
            rack = int(rack_of[node]) if node < num_nodes else -1
            if rack < 0:
                continue
            sel = grouped_t[rack_starts[rack] : rack_starts[rack + 1]]
            if sel.size:
                successes += int(
                    (target_index.window_counts(node, sel, span.days) > 0).sum()
                )
    else:
        for node in target_index.event_nodes():
            successes += int(
                (target_index.window_counts(node, trig_t, span.days) > 0).sum()
            )
    return Counts(successes, trials)


def _per_node_window_counts(
    trig_t: np.ndarray,
    trig_n: np.ndarray,
    target_index: EventIndex,
    span: Span,
) -> np.ndarray:
    """#target events on the trigger's own node in each ``(t, t+span]``."""
    counts = np.zeros(trig_t.size, dtype=np.int64)
    if len(target_index) == 0 or trig_t.size == 0:
        return counts
    # Group the triggers by node once; each group queries its node's
    # pre-sorted block in the target index.
    order = np.argsort(trig_n, kind="stable")
    grouped = trig_n[order]
    bounds = np.flatnonzero(np.diff(grouped)) + 1
    for sel in np.split(order, bounds):
        node = int(trig_n[sel[0]])
        block = target_index.node_block(node)
        if block.size == 0:
            continue
        starts = trig_t[sel]
        lo = np.searchsorted(block, starts, side="right")
        hi = np.searchsorted(block, starts + span.days, side="right")
        counts[sel] = hi - lo
    return counts


class _TriggerPlan:
    """Censoring, node grouping and rack grouping of one trigger stream.

    Built once per trigger :class:`EventIndex` and reused for every
    (target, span) cell of a batched grid.  Because trigger times are
    sorted and window censoring (``t + span.days <= period.end``) is
    monotone in ``t``, the censored trigger set for any span is a prefix
    of the time-sorted stream -- per-span work reduces to a prefix count
    instead of a fresh mask-and-copy.
    """

    __slots__ = (
        "times",
        "nodes",
        "span_days",
        "n_alive",
        "node_groups",
        "rack_order",
        "rack_starts",
        "rack_trials_cumsum",
    )

    def __init__(
        self,
        trigger: EventIndex,
        period: ObservationPeriod,
        spans: Sequence[Span],
        rack_of: np.ndarray | None,
        rack_sizes: np.ndarray | None,
    ) -> None:
        t = trigger.times
        n = trigger.nodes
        self.times = t
        self.nodes = n
        self.span_days = [span.days for span in spans]
        # The same elementwise predicate as the per-cell kernel (NOT the
        # rearranged ``t <= end - days``, which differs in float).
        self.n_alive = [
            int(np.count_nonzero(t + days <= period.end))
            for days in self.span_days
        ]
        # Group triggers by node once; shared by every target's own-node
        # window queries.
        if t.size:
            order = np.argsort(n, kind="stable")
            grouped = n[order]
            bounds = np.flatnonzero(np.diff(grouped)) + 1
            self.node_groups = np.split(order, bounds)
        else:
            self.node_groups = []
        self.rack_order = None
        self.rack_starts = None
        self.rack_trials_cumsum = None
        if rack_sizes is not None:
            trig_racks = n if not t.size else rack_of[n]
            self.rack_order = np.argsort(trig_racks, kind="stable")
            n_racks = int(rack_sizes.size)
            self.rack_starts = np.zeros(n_racks + 1, dtype=np.int64)
            np.cumsum(
                np.bincount(trig_racks, minlength=n_racks),
                out=self.rack_starts[1:],
            )
            self.rack_trials_cumsum = np.zeros(t.size + 1, dtype=np.int64)
            np.cumsum(rack_sizes[trig_racks] - 1, out=self.rack_trials_cumsum[1:])

    def own_hit_counts(self, target: EventIndex) -> list[int]:
        """Per-span number of censored triggers whose own node has a hit.

        One ``lo`` searchsorted per trigger-node block is shared by all
        spans; only the ``hi`` side is span-dependent.
        """
        n_spans = len(self.span_days)
        if len(target) == 0 or not self.node_groups:
            return [0] * n_spans
        hits = [np.zeros(self.times.size, dtype=bool) for _ in range(n_spans)]
        for sel in self.node_groups:
            block = target.node_block(int(self.nodes[sel[0]]))
            if block.size == 0:
                continue
            starts = self.times[sel]
            lo = np.searchsorted(block, starts, side="right")
            for k, days in enumerate(self.span_days):
                hi = np.searchsorted(block, starts + days, side="right")
                hits[k][sel] = hi > lo
        return [
            int(np.count_nonzero(hits[k][: self.n_alive[k]]))
            for k in range(n_spans)
        ]


def conditional_counts_batch(
    triggers: Sequence[EventIndex],
    targets: Sequence[EventIndex],
    period: ObservationPeriod,
    spans: Sequence[Span],
    scope: Scope = Scope.NODE,
    rack_of: np.ndarray | None = None,
    num_nodes: int | None = None,
) -> list[list[list[Counts]]]:
    """A trigger x target x span grid of conditional :class:`Counts`.

    Computes, in one pass per trigger stream, every cell that per-cell
    :func:`conditional_counts` calls would produce -- censoring, node
    grouping and rack grouping of each trigger stream happen once and
    are reused for every target and span, and the window-start
    ``searchsorted`` is shared across spans.  Results are exactly equal
    to the per-cell kernel (all reductions are integer counts of the
    same searchsorted comparisons).

    Args:
        triggers: trigger event streams (grid rows).
        targets: qualifying event streams (grid columns).
        period: observation period.
        spans: window lengths (grid depth).
        scope / rack_of / num_nodes: as in :func:`conditional_counts`.

    Returns:
        ``grid[i][j][k]`` = counts for ``(triggers[i], targets[j],
        spans[k])``.
    """
    spans = list(spans)
    counter_add("windows.conditional_batch_calls", 1)
    counter_add(
        "windows.conditional_cells",
        len(triggers) * len(targets) * len(spans),
        path="batch",
    )
    rack_sizes = None
    if scope is not Scope.NODE and num_nodes is None:
        raise WindowAnalysisError(f"{scope} scope requires num_nodes")
    if scope is Scope.RACK:
        if rack_of is None:
            raise WindowAnalysisError("RACK scope requires a rack_of mapping")
        rack_of = np.asarray(rack_of, dtype=np.int64)
        if rack_of.shape != (num_nodes,):
            raise WindowAnalysisError(
                "rack_of must map every node of the system to a rack"
            )
        rack_sizes = np.bincount(rack_of, minlength=int(rack_of.max()) + 1)
    grid: list[list[list[Counts]]] = []
    for trigger in triggers:
        plan = _TriggerPlan(trigger, period, spans, rack_of, rack_sizes)
        grid.append(
            [
                _batch_cell_counts(
                    plan, target, spans, scope, rack_of, num_nodes
                )
                for target in targets
            ]
        )
    return grid


def _batch_cell_counts(
    plan: _TriggerPlan,
    target: EventIndex,
    spans: Sequence[Span],
    scope: Scope,
    rack_of: np.ndarray | None,
    num_nodes: int | None,
) -> list[Counts]:
    """Per-span counts of one (trigger, target) pair of a batched grid."""
    n_spans = len(spans)
    own = plan.own_hit_counts(target)
    if scope is Scope.NODE:
        return [
            Counts(own[k], plan.n_alive[k]) if plan.n_alive[k] else ZERO_COUNTS
            for k in range(n_spans)
        ]

    # RACK / SYSTEM: pair trials; successes decompose into all in-scope
    # nodes (per target-node block) minus the trigger's own node.
    successes = [-own[k] for k in range(n_spans)]
    if scope is Scope.RACK:
        for node in target.event_nodes():
            rack = int(rack_of[node]) if node < num_nodes else -1
            if rack < 0:
                continue
            sel = plan.rack_order[
                plan.rack_starts[rack] : plan.rack_starts[rack + 1]
            ]
            if not sel.size:
                continue
            block = target.node_block(int(node))
            if not block.size:
                continue
            starts = plan.times[sel]
            lo = np.searchsorted(block, starts, side="right")
            for k, days in enumerate(plan.span_days):
                hi = np.searchsorted(block, starts + days, side="right")
                successes[k] += int(
                    np.count_nonzero((hi > lo) & (sel < plan.n_alive[k]))
                )
        trials = [
            int(plan.rack_trials_cumsum[plan.n_alive[k]])
            for k in range(n_spans)
        ]
    else:
        for node in target.event_nodes():
            block = target.node_block(int(node))
            if not block.size:
                continue
            lo = np.searchsorted(block, plan.times, side="right")
            for k, days in enumerate(plan.span_days):
                hi = np.searchsorted(block, plan.times + days, side="right")
                successes[k] += int(np.count_nonzero((hi > lo)[: plan.n_alive[k]]))
        trials = [plan.n_alive[k] * (num_nodes - 1) for k in range(n_spans)]
    return [
        Counts(successes[k], trials[k])
        if plan.n_alive[k] and trials[k]
        else ZERO_COUNTS
        for k in range(n_spans)
    ]


#: Most target events :func:`window_scope_hits` gathers at once; larger
#: requests split the triggers in halves until each half fits.
GATHER_CHUNK = 1 << 22


@dataclass(frozen=True, slots=True)
class ScopeHits:
    """Per-trigger window outcomes, indexed ``[span, target, trigger]``.

    Attributes:
        own: whether the trigger's own node has a target event in
            ``(t, t + span]`` (the NODE-scope success).
        system: number of distinct *other* nodes with a target event in
            the window (the trigger's SYSTEM-scope successes); zero for
            targets not asked for wide scopes.
        rack: the same, restricted to the trigger's rack (RACK scope);
            ``None`` without a rack mapping.
    """

    own: np.ndarray
    system: np.ndarray
    rack: np.ndarray | None


def window_scope_hits(
    trig_t: np.ndarray,
    trig_n: np.ndarray,
    targets: Sequence[tuple[np.ndarray, np.ndarray]],
    span_days: Sequence[float],
    num_nodes: int,
    rack_of: np.ndarray | None = None,
    wide: Sequence[bool] | None = None,
) -> ScopeHits:
    """NODE, RACK and SYSTEM window hits of every trigger in one gather.

    The kernel behind incremental (stream) resolution.  For each
    ``(target, trigger)`` pair, the segment ``(t, t + longest]`` of the
    time-sorted target stream is located with one ``searchsorted`` per
    side, and all segments are flattened into one array with
    ``np.repeat`` index arithmetic.  Every span and scope derives from
    that array:

    * a shorter span keeps the entries with ``T <= t + days``, the same
      float comparison ``searchsorted(T, t + days, "right")`` makes, so
      every window equals the one :func:`conditional_counts` uses;
    * NODE: entries on the trigger's own node;
    * SYSTEM: distinct other nodes, via ``np.unique`` over
      ``pair * num_nodes + node``;
    * RACK: the SYSTEM keys whose node shares the trigger's rack.

    Censoring is left to the caller, which masks the per-trigger
    results.  Triggers need not be sorted.

    Args:
        trig_t / trig_n: trigger times and nodes.
        targets: ``(times, nodes)`` target streams, each time-sorted
            with node ids below ``num_nodes``.
        span_days: window lengths.
        num_nodes: system node count.
        rack_of: node -> rack mapping; enables RACK results.
        wide: per target, whether to compute SYSTEM/RACK results
            (default: every target).
    """
    n_trig = int(trig_t.size)
    n_spans = len(span_days)
    shape = (n_spans, len(targets), n_trig)
    hits = ScopeHits(
        own=np.zeros(shape, dtype=bool),
        system=np.zeros(shape, dtype=np.int64),
        rack=np.zeros(shape, dtype=np.int64) if rack_of is not None else None,
    )
    if not n_trig or not n_spans or not targets:
        return hits
    ends = trig_t + max(span_days)
    lo, hi, offset = [], [], 0
    for times, _ in targets:
        lo.append(np.searchsorted(times, trig_t, side="right") + offset)
        hi.append(np.searchsorted(times, ends, side="right") + offset)
        offset += int(times.size)
    # Pair p = target * n_trig + trigger: the flat index of hits.*[k].
    lo = np.concatenate(lo)
    lengths = np.concatenate(hi) - lo
    if lengths.sum() > GATHER_CHUNK and n_trig > 1:
        # Bound the gather's memory: resolve each half of the triggers.
        first, second = (
            window_scope_hits(
                trig_t[part], trig_n[part], targets, span_days, num_nodes,
                rack_of, wide,
            )
            for part in (slice(None, n_trig // 2), slice(n_trig // 2, None))
        )
        return ScopeHits(
            *(
                None if a is None else np.concatenate((a, b), axis=2)
                for a, b in (
                    (first.own, second.own),
                    (first.system, second.system),
                    (first.rack, second.rack),
                )
            )
        )
    pair = np.repeat(np.arange(lo.size), lengths)
    trig = pair % n_trig
    # Entry j of pair p's segment is target index lo[p] + j - start[p].
    start = np.cumsum(lengths) - lengths
    idx = np.arange(pair.size) + (lo - start)[pair]
    seg_t = np.concatenate([times for times, _ in targets])[idx]
    seg_n = np.concatenate([nodes for _, nodes in targets])[idx]
    t_own = trig_t[trig]
    same = seg_n == trig_n[trig]
    other = ~same
    if wide is not None:
        other &= np.repeat(np.asarray(wide, dtype=bool), n_trig)[pair]
    keys = pair * np.int64(num_nodes) + seg_n
    own, system, rack = (
        None if a is None else a.reshape(n_spans, -1)
        for a in (hits.own, hits.system, hits.rack)
    )
    for k, days in enumerate(span_days):
        inside = seg_t <= t_own + days
        own[k, pair[same & inside]] = True
        distinct = np.unique(keys[other & inside])
        hit_pair = distinct // num_nodes
        system[k] = np.bincount(hit_pair, minlength=lo.size)
        if rack is not None:
            in_rack = rack_of[distinct % num_nodes] == rack_of[
                trig_n[hit_pair % n_trig]
            ]
            rack[k] = np.bincount(hit_pair[in_rack], minlength=lo.size)
    return hits


def baseline_counts_batch(
    targets: Sequence[EventIndex],
    num_nodes: int,
    period: ObservationPeriod,
    spans: Sequence[Span],
    node_subset: np.ndarray | None = None,
) -> list[list[Counts]]:
    """A target x span grid of tiled-window baseline :class:`Counts`.

    Exactly equivalent to per-cell :func:`baseline_counts` calls, but the
    event streams arrive pre-sorted as :class:`EventIndex` objects and a
    ``node_subset`` filter is applied once per target instead of once per
    (target, span) cell.

    Returns:
        ``grid[j][k]`` = counts for ``(targets[j], spans[k])``.
    """
    if num_nodes < 1:
        raise WindowAnalysisError(f"num_nodes must be >= 1, got {num_nodes}")
    spans = list(spans)
    counter_add("windows.baseline_batch_calls", 1)
    counter_add(
        "windows.baseline_cells", len(targets) * len(spans), path="batch"
    )
    subset = None
    n_nodes_at_risk = num_nodes
    if node_subset is not None:
        subset = np.asarray(node_subset, dtype=np.int64)
        if subset.size == 0:
            raise WindowAnalysisError("node_subset must be non-empty")
        n_nodes_at_risk = int(np.unique(subset).size)
    grid: list[list[Counts]] = []
    for target in targets:
        times, nodes = target.times, target.nodes
        if subset is not None:
            keep = np.isin(nodes, subset)
            times, nodes = times[keep], nodes[keep]
        row = []
        for span in spans:
            n_windows = count_windows(period, span)
            idx = window_index(times, period, span)
            valid = idx >= 0
            keys = nodes[valid] * np.int64(n_windows) + idx[valid]
            row.append(
                Counts(int(np.unique(keys).size), n_nodes_at_risk * n_windows)
            )
        grid.append(row)
    return grid


def compare(
    conditional: Counts,
    baseline: Counts,
    span: Span,
    confidence: float = 0.95,
    alpha: float = 0.05,
) -> WindowComparison:
    """Assemble a figure bar: estimates, test and factor annotation."""
    cond_est = conditional.estimate(confidence)
    base_est = baseline.estimate(confidence)
    test = two_sample_z_test(
        conditional.successes,
        conditional.trials,
        baseline.successes,
        baseline.trials,
        alpha=alpha,
    )
    if cond_est.defined and base_est.defined and base_est.value > 0:
        factor = cond_est.value / base_est.value
    else:
        factor = float("nan")
    return WindowComparison(
        span=span,
        conditional=cond_est,
        baseline=base_est,
        test=test,
        factor=factor,
    )


def sliding_baseline_counts(
    target_times: np.ndarray,
    target_nodes: np.ndarray,
    num_nodes: int,
    period: ObservationPeriod,
    span: Span,
    step: float,
) -> Counts:
    """Overlapping-window baseline (the ablation alternative).

    Windows start every ``step`` days; a (node, window) trial succeeds
    when the node has >= 1 qualifying event inside ``[start, start+span)``.
    Used by ``benchmarks/bench_ablation.py`` to show the tiling choice
    does not drive the paper's factors.
    """
    from ..records.timeutil import overlapping_window_starts

    times, nodes = _check_events(target_times, target_nodes)
    starts = overlapping_window_starts(period, span, step)
    trials = int(starts.size) * num_nodes
    index = EventIndex(times, nodes)
    successes = 0
    for node in index.event_nodes():
        if node >= num_nodes:
            continue
        block = index.node_block(int(node))
        l = np.searchsorted(block, starts, side="left")
        h = np.searchsorted(block, starts + span.days, side="left")
        successes += int(((h - l) > 0).sum())
    return Counts(successes, trials)
