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

Everything here is expressed over time-sorted event streams
(:class:`~repro.records.dataset.EventIndex`), so the same engine serves
failures, failure subsets (by category or subtype) and maintenance
events.  One gather kernel, :func:`segment_hits`, decides window
membership for the batch grids and the stream alike.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..records.dataset import EventIndex
from ..records.timeutil import ObservationPeriod, Span, count_windows, window_index
from ..records.usage import run_heads, sorted_distinct
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


def _check_num_nodes(num_nodes: int, indexes: Sequence[EventIndex]) -> None:
    """Reject a node count that does not cover every indexed event."""
    if num_nodes < 1:
        raise WindowAnalysisError(f"num_nodes must be >= 1, got {num_nodes}")
    for index in indexes:
        if index.num_nodes > num_nodes:
            raise WindowAnalysisError(
                f"an event stream indexed over {index.num_nodes} nodes "
                f"exceeds num_nodes={num_nodes}"
            )


def conditional_counts_batch(
    triggers: Sequence[EventIndex],
    targets: Sequence[EventIndex],
    period: ObservationPeriod,
    spans: Sequence[Span],
    num_nodes: int,
    scope: Scope = Scope.NODE,
    rack_of: np.ndarray | None = None,
) -> list[list[list[Counts]]]:
    """A trigger x target x span grid of conditional :class:`Counts`.

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
      pair.

    Counting *pairs* (rather than "any other node fails") is essential:
    in a 1024-node system some node almost surely fails every week, so
    the any-node probability saturates at 1 and carries no information,
    whereas the per-node probability reproduces the paper's 2.04% ->
    2.68% system-level result.

    Each trigger stream is resolved by one :func:`window_scope_hits`
    gather covering every target and span.  Trigger times are sorted and
    censoring is monotone in ``t``, so the uncensored triggers of every
    span are a prefix of the stream.

    Args:
        triggers: trigger event streams (grid rows).
        targets: qualifying event streams (grid columns).
        period: observation period.
        spans: window lengths (grid depth).
        num_nodes: system node count; every event must lie below it.
        scope: NODE, RACK or SYSTEM.
        rack_of: node -> rack id mapping, required for RACK scope.

    Returns:
        ``grid[i][j][k]`` = counts for ``(triggers[i], targets[j],
        spans[k])``.
    """
    _check_num_nodes(num_nodes, [*triggers, *targets])
    spans = list(spans)
    counter_add("windows.conditional_batch_calls", 1)
    counter_add(
        "windows.conditional_cells",
        len(triggers) * len(targets) * len(spans),
        path="batch",
    )
    rack_sizes = None
    if scope is Scope.RACK:
        if rack_of is None:
            raise WindowAnalysisError("RACK scope requires a rack_of mapping")
        rack_of = np.asarray(rack_of, dtype=np.int64)
        if rack_of.shape != (num_nodes,):
            raise WindowAnalysisError(
                "rack_of must map every node of the system to a rack"
            )
        rack_sizes = np.bincount(rack_of, minlength=int(rack_of.max()) + 1)
    span_days = [span.days for span in spans]
    target_streams = [(target.times, target.nodes) for target in targets]
    wide = [scope is not Scope.NODE] * len(targets)
    grid: list[list[list[Counts]]] = []
    for trigger in triggers:
        t, n = trigger.times, trigger.nodes
        # The elementwise predicate ``t + days <= end`` (NOT the
        # rearranged ``t <= end - days``, which differs in float).
        alive = [
            int(np.count_nonzero(t + days <= period.end)) for days in span_days
        ]
        n_live = max(alive, default=0)
        hits = window_scope_hits(
            t[:n_live],
            n[:n_live],
            target_streams,
            span_days,
            num_nodes,
            rack_of if scope is Scope.RACK else None,
            wide,
        )
        per_trigger = {
            Scope.NODE: hits.own,
            Scope.SYSTEM: hits.system,
            Scope.RACK: hits.rack,
        }[scope]
        successes = [
            per_trigger[k, :, : alive[k]].sum(axis=1) for k in range(len(spans))
        ]
        if scope is Scope.NODE:
            trials = alive
        elif scope is Scope.SYSTEM:
            trials = [a * (num_nodes - 1) for a in alive]
        else:
            pair_trials = np.zeros(n_live + 1, dtype=np.int64)
            np.cumsum(rack_sizes[rack_of[n[:n_live]]] - 1, out=pair_trials[1:])
            trials = [int(pair_trials[a]) for a in alive]
        grid.append(
            [
                [
                    Counts(int(successes[k][j]), trials[k])
                    if alive[k] and trials[k]
                    else ZERO_COUNTS
                    for k in range(len(spans))
                ]
                for j in range(len(targets))
            ]
        )
    return grid


#: Most target entries :func:`segment_hits` gathers at once; larger
#: requests split the pairs in halves until each half fits.
GATHER_CHUNK = 1 << 22


@dataclass(frozen=True, slots=True)
class ScopeHits:
    """Per-trigger window outcomes, indexed ``[span, ...]``.

    :func:`segment_hits` indexes them ``[span, pair]`` and
    :func:`window_scope_hits` ``[span, target, trigger]``.

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

    def __iter__(self):
        return iter((self.own, self.system, self.rack))


def window_scope_hits(
    trig_t: np.ndarray,
    trig_n: np.ndarray,
    targets: Sequence[tuple[np.ndarray, np.ndarray]],
    span_days: Sequence[float],
    num_nodes: int,
    rack_of: np.ndarray | None = None,
    wide: Sequence[bool] | None = None,
) -> ScopeHits:
    """NODE, RACK and SYSTEM window hits of every trigger against every
    target stream, indexed ``[span, target, trigger]``.

    The segment locator in front of :func:`segment_hits`, the one window
    kernel: for each ``(target, trigger)`` pair, the segment
    ``(t, t + longest]`` of the time-sorted target stream is located
    with one ``searchsorted`` per side, and one :func:`segment_hits`
    call resolves every pair, span and scope.  Censoring is left to the
    caller, which masks the per-trigger results.  Triggers need not be
    sorted.

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
    n_targets = len(targets)
    if not n_trig or not len(span_days) or not n_targets:
        return _no_hits(len(span_days), (n_targets, n_trig), rack_of)
    ends = trig_t + max(span_days)
    lo, hi, offset = [], [], 0
    for times, _ in targets:
        lo.append(np.searchsorted(times, trig_t, side="right") + offset)
        hi.append(np.searchsorted(times, ends, side="right") + offset)
        offset += int(times.size)
    # Pair p = target * n_trig + trigger: the flat index of hits.*[k].
    hits = segment_hits(
        np.concatenate(lo),
        np.concatenate(hi),
        np.tile(trig_t, n_targets),
        np.tile(trig_n, n_targets),
        np.concatenate([times for times, _ in targets]),
        np.concatenate([nodes for _, nodes in targets]),
        span_days,
        num_nodes,
        rack_of,
        None if wide is None else np.repeat(np.asarray(wide, dtype=bool), n_trig),
    )
    shape = (len(span_days), n_targets, n_trig)
    return ScopeHits(
        *(None if a is None else a.reshape(shape) for a in hits)
    )


def _no_hits(
    n_spans: int, shape: tuple[int, ...], rack_of: np.ndarray | None
) -> ScopeHits:
    shape = (n_spans, *shape)
    return ScopeHits(
        own=np.zeros(shape, dtype=bool),
        system=np.zeros(shape, dtype=np.int64),
        rack=np.zeros(shape, dtype=np.int64) if rack_of is not None else None,
    )


def segment_hits(
    lo: np.ndarray,
    hi: np.ndarray,
    trig_t: np.ndarray,
    trig_n: np.ndarray,
    times: np.ndarray,
    nodes: np.ndarray,
    span_days: Sequence[float],
    num_nodes: int,
    rack_of: np.ndarray | None = None,
    wide: np.ndarray | None = None,
) -> ScopeHits:
    """NODE, RACK and SYSTEM window hits of many (trigger, segment)
    pairs in one gather, indexed ``[span, pair]``.

    The one window kernel: the batch grids, the analysis cache and the
    stream all count through it.  Pair ``p`` is a trigger at
    ``trig_t[p]`` on node ``trig_n[p]`` and the segment
    ``lo[p]:hi[p]`` of the flat target arrays ``times`` / ``nodes``:
    time-sorted entries with ``T > t`` that cover ``(t, t + days]`` for
    every span whose result the caller reads.  Segments of one pair
    never mix systems, so several systems resolve in one call when
    their node (and rack) ids are offset apart.

    All segments are flattened into one array with ``np.repeat`` index
    arithmetic; a span keeps the entries with ``T <= t + days``, the
    float comparison ``searchsorted(T, t + days, "right")`` makes.
    Because segments are time-sorted, whether a node has an entry in a
    span's window is decided by its *first* entry:

    * NODE: the pair's first entry on the trigger's own node;
    * SYSTEM: one stable sort of the other-node entries by
      ``pair * num_nodes + node`` puts each (pair, node) group's first
      entry at its head; a span counts the heads with
      ``T <= t + days``;
    * RACK: the SYSTEM heads whose node shares the trigger's rack.

    Args:
        lo / hi: per pair, the segment bounds in ``times`` / ``nodes``.
        trig_t / trig_n: per pair, the trigger time and node.
        times / nodes: flat target entries; node ids below
            ``num_nodes``.
        span_days: window lengths.
        num_nodes: node id bound.
        rack_of: node -> rack mapping; enables RACK results.
        wide: per pair, whether to compute SYSTEM/RACK results
            (default: every pair).
    """
    n_pairs = int(lo.size)
    lengths = hi - lo
    if n_pairs > 1 and lengths.sum() > GATHER_CHUNK:
        # Bound the gather's memory: resolve each half of the pairs.
        halves = [
            segment_hits(
                lo[part], hi[part], trig_t[part], trig_n[part], times, nodes,
                span_days, num_nodes, rack_of,
                None if wide is None else wide[part],
            )
            for part in (slice(None, n_pairs // 2), slice(n_pairs // 2, None))
        ]
        return ScopeHits(
            *(
                None if a is None else np.concatenate((a, b), axis=1)
                for a, b in zip(*halves)
            )
        )
    hits = _no_hits(len(span_days), (n_pairs,), rack_of)
    if not n_pairs or not len(span_days):
        return hits
    pair = np.repeat(np.arange(n_pairs), lengths)
    idx = concat_ranges(lo, hi)
    seg_t = times[idx]
    seg_n = nodes[idx]
    del idx
    same = seg_n == trig_n[pair]
    first_own = np.full(n_pairs, np.inf)
    own_pair = pair[same]
    head = run_heads(own_pair)
    first_own[own_pair[head]] = seg_t[same][head]
    del own_pair, head
    other = np.logical_not(same, out=same)
    if wide is not None:
        other &= wide[pair]
    keys = pair[other]
    del pair
    keys *= num_nodes
    keys += seg_n[other]
    first_t = seg_t[other]
    del seg_t, seg_n, other
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    head = run_heads(keys)
    keys = keys[head]
    first_t = first_t[order][head]
    del order, head
    hit_pair = keys // num_nodes
    head_trig_t = trig_t[hit_pair]
    in_rack = None
    if rack_of is not None:
        in_rack = rack_of[keys % num_nodes] == rack_of[trig_n[hit_pair]]
    del keys
    for k, days in enumerate(span_days):
        hits.own[k] = first_own <= trig_t + days
        inside = first_t <= head_trig_t + days
        hits.system[k] = np.bincount(hit_pair[inside], minlength=n_pairs)
        if in_rack is not None:
            inside &= in_rack
            hits.rack[k] = np.bincount(hit_pair[inside], minlength=n_pairs)
    return hits


def concat_ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The index ranges ``lo[i]:hi[i]``, concatenated (``np.repeat``
    arithmetic: entry ``j`` of range ``i`` is ``lo[i] + j``)."""
    lengths = hi - lo
    idx = np.arange(int(lengths.sum()))
    idx += np.repeat(lo - (np.cumsum(lengths) - lengths), lengths)
    return idx


def baseline_counts_batch(
    targets: Sequence[EventIndex],
    num_nodes: int,
    period: ObservationPeriod,
    spans: Sequence[Span],
    node_subset: np.ndarray | None = None,
) -> list[list[Counts]]:
    """A target x span grid of tiled-window baseline :class:`Counts`.

    A trial is one (node, tile) pair of the system's observation period
    tiled into non-overlapping ``span`` windows (trailing partial windows
    are discarded); it succeeds when the node has at least one target
    event in the tile.  ``node_subset`` restricts the trials (and the
    events) to those nodes -- used e.g. for "rest of the nodes"
    baselines in Section IV -- and is applied once per target.

    Returns:
        ``grid[j][k]`` = counts for ``(targets[j], spans[k])``.
    """
    _check_num_nodes(num_nodes, targets)
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
        n_nodes_at_risk = int(sorted_distinct(subset).size)
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
                Counts(int(sorted_distinct(keys).size), n_nodes_at_risk * n_windows)
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
