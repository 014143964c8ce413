"""The per-copy stream resolution, kept as an oracle.

:meth:`StreamAnalysisState._resolve` gathers each distinct (system,
time, node) trigger once and folds the hits with ``np.bincount``.  The
functions here are the earlier form it replaced: every trigger copy --
an event's ANY entry and its category entry alike -- runs its own
searches and its own :func:`segment_hits` gather, and ``_fold`` adds
with ``np.add.at``.  ``tests/stream/test_resolve_oracle.py`` binds them
to a state in place of its methods and compares the two after every
micro-batch; :func:`reference_risk_model` is the per-cell refit that
:func:`repro.stream.risk_model_from_state` replaced.
"""

from __future__ import annotations

import numpy as np

from repro.core.windows import (
    Counts,
    Scope,
    ScopeHits,
    concat_ranges,
    segment_hits,
)
from repro.prediction.risk import RiskModel
from repro.records.taxonomy import all_categories
from repro.stream.state import _WIDE_SCOPES, _bisect_right


def reference_resolve(self, systems) -> None:
    """Fold every newly final (trigger, span) of ``systems`` into the
    counters and advance the resolution pointers.

    A trigger's window ``(t, t + days]`` is final once
    ``t + days < watermark``; stores are time-sorted, so the final
    triggers of a (block, span) are a prefix, found by counting the
    predicate over the unresolved tail.  All newly final triggers
    then resolve in one :func:`segment_hits` gather against every
    store of their own system.
    """
    n_codes, n_spans = len(self._codes), self._span_days.size
    index = np.array([system.index for system in systems], dtype=np.int64)
    watermark = np.array([system.clock.watermark for system in systems])
    blocks = (index[:, None] * n_codes + np.arange(n_codes)).ravel()
    first = self._bounds[blocks][:, None]
    done = first + self._resolved[blocks]
    end = np.broadcast_to(self._bounds[blocks + 1][:, None], done.shape)
    # The exact due prefix of each (block, span): count the final
    # entries of the unresolved tail.
    tail = concat_ranges(done.ravel(), end.ravel())
    cell = np.repeat(np.arange(done.size), (end - done).ravel())
    final = self._times[tail] + np.tile(self._span_days, blocks.size)[cell] < (
        np.repeat(watermark, n_codes * n_spans)[cell]
    )
    due = done + np.bincount(cell[final], minlength=done.size).reshape(
        done.shape
    )
    newly = concat_ranges(done.ravel(), due.ravel())
    self._resolved[blocks] = due - first
    if not newly.size:
        return
    span_of = np.repeat(np.tile(np.arange(n_spans), blocks.size), (due - done).ravel())
    # alive[k, i]: trigger i is newly final at span k and uncensored.
    trig, column = np.unique(newly, return_inverse=True)
    alive = np.zeros((n_spans, trig.size), dtype=bool)
    alive[span_of, column] = True
    block = np.searchsorted(self._bounds, trig, side="right") - 1
    system = block // n_codes
    trig_t = self._times[trig]
    # Censoring: the batch kernel's elementwise ``t + days <= end``.
    alive &= trig_t + self._span_days[:, None] <= self._end[system]
    keep = alive.any(axis=0)
    alive, block, system, trig_t = alive[:, keep], block[keep], system[keep], trig_t[keep]
    trig_n = self._nodes[trig[keep]]
    longest = np.where(alive, self._span_days[:, None], -np.inf).max(axis=0)
    # Pairs: each trigger against every store of its system.
    target = np.arange(n_codes)
    pair_block = (system[:, None] * n_codes + target).ravel()
    pair_t = np.repeat(trig_t, n_codes)
    lo = self._bounds[pair_block]
    hi = self._bounds[pair_block + 1]
    # Each pair's segment (t, t + longest alive span] in its store.
    located = _bisect_right(
        self._times,
        np.concatenate((lo, lo)),
        np.concatenate((hi, hi)),
        np.concatenate((pair_t, pair_t + np.repeat(longest, n_codes))),
    )
    wide_slot = np.tile(self._wide_slot, trig_t.size)
    hits = segment_hits(
        located[: lo.size],
        located[lo.size :],
        pair_t,
        np.repeat(trig_n, n_codes),
        self._times,
        self._nodes,
        self._span_days,
        int(self._node_base[-1]),
        self._rack,
        wide_slot >= 0,
    )
    reference_fold(self, hits, alive, block, trig_n, wide_slot)

def reference_fold(
    self,
    hits: ScopeHits,
    alive: np.ndarray,
    block: np.ndarray,
    trig_n: np.ndarray,
    wide_slot: np.ndarray,
) -> None:
    """Add resolved pair hits to the (successes, trials) counters.

    Pair ``p`` is trigger ``p // n_codes`` against its system's store
    ``p % n_codes``.  A system without a layout adds nothing at RACK
    scope: each of its nodes is its own rack, with no rack peers to
    hit or to count as trials.
    """
    n_codes, n_spans = len(self._codes), self._span_days.size
    trig = np.repeat(np.arange(block.size), n_codes)
    live = alive[:, trig]
    span = np.arange(n_spans)[:, None]
    block = block[trig]
    # NODE cell [system, trigger, target, span]; the block numbers
    # (system, trigger) pairs.
    cells = ((block * n_codes + np.tile(np.arange(n_codes), trig.size // n_codes))
             * n_spans + span)[live]
    node = self._node_cells.reshape(-1, 2)
    np.add.at(node[:, 0], cells, hits.own[live])
    np.add.at(node[:, 1], cells, 1)
    # Wide cell [system, scope, trigger, wide target, span].
    live &= wide_slot >= 0
    system = block // n_codes
    wide = self._wide_cells.reshape(-1, 2)
    for row, successes, trials in (
        (0, hits.system, np.diff(self._node_base)[system] - 1),
        (1, hits.rack, self._peers[trig_n][trig]),
    ):
        cells = (
            (((system * len(_WIDE_SCOPES) + row) * n_codes + block % n_codes)
             * len(self._wide_codes) + wide_slot) * n_spans + span
        )[live]
        np.add.at(wide[:, 0], cells, successes[live])
        np.add.at(wide[:, 1], cells, np.broadcast_to(trials, live.shape)[live])


def reference_pooled(state, scope, trigger, horizon) -> Counts:
    """One (scope, trigger) cell against any target, summed system by
    system (systems without a layout hold no RACK counts)."""
    pooled = Counts(0, 0)
    for system in state.systems.values():
        if scope is not Scope.RACK or system.rack_of is not None:
            pooled += system.counts(scope, trigger, None, horizon)
    return pooled


def reference_risk_model(state, horizon) -> RiskModel:
    """The risk model refit cell by cell: one pooled cell and one Wilson
    estimate per (scope, trigger category)."""
    any_rack = any(
        state.systems[sid].rack_of is not None for sid in state.systems
    )
    baseline = state.pooled_baseline(None, horizon).estimate().value
    conditional = {}
    for scope in (Scope.NODE, Scope.RACK, Scope.SYSTEM):
        if scope is Scope.RACK and not any_rack:
            continue
        for category in all_categories():
            if category not in state.config.selections:
                continue
            estimate = reference_pooled(state, scope, category, horizon).estimate()
            if estimate.defined:
                conditional[(scope, category)] = estimate.value
    return RiskModel(horizon=horizon, baseline=baseline, conditional=conditional)
