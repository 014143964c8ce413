"""Incremental analysis state mirroring the batch window engine exactly.

The batch engine (:mod:`repro.core.windows`) answers "what is the
probability a node fails in the window after a trigger" over a complete
archive.  This module maintains the *same counts incrementally* as
events stream in, with three guarantees:

* **Replay-vs-batch equivalence** -- after a full replay the
  conditional grids equal :func:`repro.core.windows.conditional_counts_batch`
  and the baseline grids equal
  :func:`repro.core.windows.baseline_counts_batch` *exactly* (integer
  equality, not approximation).  Window membership
  ``t < T <= t + span.days`` is decided by the one gather kernel,
  :func:`repro.core.windows.segment_hits`, which the batch grids run
  on too; censoring is the same elementwise
  ``t + span.days <= period.end`` comparison, and baseline tiling uses
  the same ``floor((t - start) / span.days)`` slot arithmetic.
* **Monotone finalisation** -- a trigger's window ``(t, t + span]`` is
  counted only once the watermark passes ``t + span`` (no admissible
  event can still land in it).  Because admitted events satisfy
  ``time >= watermark`` and resolved triggers satisfy
  ``t + span < watermark``, out-of-order insertions always land *after*
  the resolved prefix of the time-sorted store, so per-span resolution
  pointers stay valid.
* **Bit-identical checkpoint/restore** -- :func:`write_checkpoint` /
  :func:`load_checkpoint` round-trip the entire state (versioned
  format); a consumer killed and restored from its last checkpoint,
  then fed the same source again, converges to the same
  :meth:`StreamAnalysisState.digest` as an uninterrupted run
  (already-applied events deduplicate, already-final events drop as
  late).  Checkpoints contain no wall-clock timestamps, so rewriting
  the same state yields byte-identical payloads.  Restore trusts only
  what a stream admitted (each system's shape, watermark, dedup window,
  dispositions and event stores, refused if unsorted, out of period or
  off the system's nodes); it rebuilds the baseline keys, resolution
  pointers and counters with the ingest path's own code and refuses a
  checkpoint whose stored ones differ.

The state tracks the paper's one correlation grid, fixed as module
constants: the triggers and targets of :data:`SELECTIONS` (any failure,
then each root-cause category), the windows of :data:`SPANS` (the
following day, week and month) and the NODE, RACK and SYSTEM scopes,
whose wide (RACK/SYSTEM) grids condition on the trigger only (target:
any failure).  The only setting is the lateness budget.

Every system's stores and counters live in columns shared by all
systems (:class:`StreamAnalysisState`), so one micro-batch costs a
fixed number of array operations -- and one kernel call -- however
many systems it touches.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from ..core.windows import Counts, Scope, ScopeHits, concat_ranges, segment_hits
from ..records.dataset import Archive
from ..records.taxonomy import Category, all_categories
from ..records.timeutil import ALL_SPANS, ObservationPeriod, Span, count_windows
from ..records.usage import run_heads, sorted_distinct
from ..telemetry import counter_add, gauge_set, span as tel_span
from .events import KIND_FAILURE, StreamEvent, WatermarkClock


class StreamStateError(ValueError):
    """Raised on inconsistent streaming state or checkpoint payloads."""


#: Version of the on-disk checkpoint format.  Bump on any change to the
#: meta schema or array layout; :func:`load_checkpoint` refuses payloads
#: from other versions rather than guessing.
CHECKPOINT_VERSION = 1

#: Selection code for "any category" (no filter).
ANY_CODE = -1

#: The window lengths of every conditional and baseline grid.
SPANS: tuple[Span, ...] = ALL_SPANS

#: The trigger/target selections (``None`` = any failure).  A system's
#: store of selection code ``c`` (``ANY_CODE`` or a category's index in
#: ``all_categories()``) is at position ``c + 1``.
SELECTIONS: tuple[Category | None, ...] = (None, *all_categories())

_N_CODES, _N_SPANS = len(SELECTIONS), len(SPANS)
_SPAN_DAYS = np.array([span.days for span in SPANS])
#: Selection -> store position.
_POSITION: dict[Category | None, int] = {s: i for i, s in enumerate(SELECTIONS)}
#: Store position -> the selection's name in checkpoints.
_NAMES = ["any", *(category.value for category in all_categories())]
#: The wide (RACK/SYSTEM) grids track one target, any failure: the
#: paper's rack and system analyses condition on the trigger type, not
#: the target type.  Per target position, whether it is that target.
_WIDE_TARGET = np.arange(_N_CODES) == _POSITION[None]


def selection_code(selection: Category | None) -> int:
    """Integer code of a category selection (``ANY_CODE`` for ``None``)."""
    return _POSITION[selection] - 1


def _config_payload(lateness_days: float) -> dict:
    """The ``config`` block of a checkpoint's meta (the tracked grid)."""
    return {
        "lateness_days": _float_hex(lateness_days),
        "spans": [span.value for span in SPANS],
        "selections": list(_NAMES),
        "wide_targets": _NAMES[:1],
    }


def _float_hex(value: float) -> str:
    """Exact, JSON-safe float encoding (handles the +/-inf watermarks)."""
    if value == math.inf:
        return "inf"
    if value == -math.inf:
        return "-inf"
    return float(value).hex()


def _hex_float(text: str) -> float:
    if text == "inf":
        return math.inf
    if text == "-inf":
        return -math.inf
    return float.fromhex(text)


@dataclass
class BatchStats:
    """Disposition counts of one ingested micro-batch."""

    accepted: int = 0
    late: int = 0
    duplicate: int = 0
    ignored: int = 0
    invalid: int = 0
    unknown_system: int = 0
    touched: set[int] = field(default_factory=set)

    def total(self) -> int:
        return (
            self.accepted
            + self.late
            + self.duplicate
            + self.ignored
            + self.invalid
            + self.unknown_system
        )

    def merge(self, other: "BatchStats") -> None:
        self.accepted += other.accepted
        self.late += other.late
        self.duplicate += other.duplicate
        self.ignored += other.ignored
        self.invalid += other.invalid
        self.unknown_system += other.unknown_system
        self.touched |= other.touched


@dataclass(frozen=True, slots=True)
class EventStore:
    """One time-sorted event selection of one system (read-only view).

    Entries of equal time keep their arrival order: an arrival lands
    after every stored event of the same time and after earlier arrivals
    of that time -- the order per-event ``bisect_right`` insertion
    builds, which checkpoints and the state digest record.
    """

    times: np.ndarray
    nodes: np.ndarray

    def __len__(self) -> int:
        return int(self.times.size)


def _bisect_right(
    values: np.ndarray, lo: np.ndarray, hi: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Per query, ``lo + searchsorted(values[lo:hi], x, "right")``.

    One vectorised binary search over many sorted slices of ``values``
    (binary lifting: each step advances past a run of entries ``<= x``),
    making the same ``values[i] <= x`` comparisons as ``searchsorted``.
    """
    lo = np.array(lo, dtype=np.int64)
    if not lo.size or not values.size:
        return lo
    step = 1 << int((hi - lo).max()).bit_length()
    while step:
        probe = lo + step
        go = probe <= hi
        go &= values[np.minimum(probe, hi) - 1] <= x
        np.copyto(lo, probe, where=go)
        step >>= 1
    return lo


class SystemStreamState:
    """One system's shape, watermark, dedup window and dispositions.

    Its event stores, resolution pointers and counters live in the
    owning :class:`StreamAnalysisState`'s shared columns, at position
    ``index``; the accessors here read them.
    """

    def __init__(
        self,
        owner: "StreamAnalysisState",
        index: int,
        system_id: int,
        num_nodes: int,
        period: ObservationPeriod,
        rack_of: np.ndarray | None,
    ) -> None:
        if num_nodes < 1:
            raise StreamStateError(f"num_nodes must be >= 1, got {num_nodes}")
        if rack_of is not None:
            rack_of = np.asarray(rack_of, dtype=np.int64)
            if rack_of.shape != (num_nodes,) or rack_of.min() < 0:
                raise StreamStateError(
                    "rack_of must map every node of the system to a rack "
                    "id >= 0"
                )
        self._owner = owner
        self.index = index
        self.system_id = system_id
        self.num_nodes = num_nodes
        self.period = period
        self.rack_of = rack_of
        self.n_windows = np.array(
            [count_windows(period, span) for span in SPANS], dtype=np.int64
        )
        self.clock = WatermarkClock(owner.lateness_days)
        self.stats = BatchStats()
        self.seen: dict[str, float] = {}

    def prune_seen(self) -> None:
        """Drop dedup entries below the watermark (no longer admissible)."""
        watermark = self.clock.watermark
        if watermark == -math.inf:
            return
        dead = [key for key, t in self.seen.items() if t < watermark]
        for key in dead:
            del self.seen[key]

    # ------------------------------------------------------------------
    # reads

    def store(self, code: int) -> EventStore:
        """The event store of one selection code."""
        owner = self._owner
        block = self.index * _N_CODES + code + 1
        lo, hi = owner._bounds[block], owner._bounds[block + 1]
        # A view of the shared column: read-only, or a caller's write
        # would corrupt the state.
        times = owner._times[lo:hi]
        times.flags.writeable = False
        return EventStore(times, owner._nodes[lo:hi] - owner._node_base[self.index])

    @property
    def stores(self) -> dict[int, EventStore]:
        """Every selection code's event store."""
        return {code: self.store(code) for code in range(ANY_CODE, _N_CODES - 1)}

    @property
    def resolved(self) -> dict[tuple[int, str], int]:
        """Resolution pointer of each (trigger code, span value)."""
        first = self.index * _N_CODES
        done = self._owner._resolved[first : first + _N_CODES].tolist()
        return {
            (i - 1, span.value): done[i][k]
            for i in range(_N_CODES)
            for k, span in enumerate(SPANS)
        }

    def conditional_cells(self, scope: Scope) -> np.ndarray | None:
        """The ``[trigger, target, span, (successes, trials)]`` counters at
        one scope (a writable view; ``None`` for RACK without a layout).
        The targets are :data:`SELECTIONS` at NODE scope and any failure
        alone at RACK and SYSTEM scope."""
        owner = self._owner
        if scope is Scope.NODE:
            return owner._node_cells[self.index]
        if scope is Scope.RACK and self.rack_of is None:
            return None
        return owner._wide_cells[self.index, _WIDE_SCOPES.index(scope)]

    def counts(
        self,
        scope: Scope,
        trigger: Category | None,
        target: Category | None,
        span: Span,
    ) -> Counts:
        """Resolved conditional counts of one grid cell."""
        cells = self.conditional_cells(scope)
        if cells is None:
            raise StreamStateError(f"system {self.system_id} has no rack layout")
        successes, trials = cells[
            _POSITION[trigger], _POSITION[target], SPANS.index(span)
        ].tolist()
        return Counts(successes, trials)

    def baseline_cells(self) -> np.ndarray:
        """The ``[target, span, (successes, trials)]`` baseline counters:
        a cell's successes are its distinct (node, tile) keys."""
        owner = self._owner
        first = self.index * _N_CODES * _N_SPANS
        bounds = owner._base_bounds[first : first + _N_CODES * _N_SPANS + 1]
        successes = np.diff(np.searchsorted(owner._base_keys, bounds))
        trials = np.broadcast_to(
            self.num_nodes * self.n_windows, (_N_CODES, _N_SPANS)
        )
        return np.stack((successes.reshape(_N_CODES, _N_SPANS), trials), axis=-1)

    def baseline(self, target: Category | None, span: Span) -> Counts:
        """Tiled-window baseline counts for one (target, span) cell."""
        successes, trials = self.baseline_cells()[
            _POSITION[target], SPANS.index(span)
        ].tolist()
        return Counts(successes, trials)

    # ------------------------------------------------------------------
    # serialisation

    def to_meta(self, include_stats: bool = True) -> dict:
        """JSON-safe scalar state (arrays go to the ``.npz`` payload).

        ``include_stats=False`` omits the operational disposition
        counters, which a resumed run legitimately accrues differently
        (re-offered events count as late/duplicate) even though its
        analytical state is bit-identical -- the digest compares
        analytical state only.
        """
        span_values = [span.value for span in SPANS]
        cond = []
        for scope in (Scope.NODE, *_WIDE_SCOPES):
            cells = self.conditional_cells(scope)
            if cells is None:
                continue
            targets = _NAMES if scope is Scope.NODE else _NAMES[:1]
            values = cells.tolist()
            cond.extend(
                [scope.value, tc, gc, sv, *values[i][j][k]]
                for i, tc in enumerate(_NAMES)
                for j, gc in enumerate(targets)
                for k, sv in enumerate(span_values)
            )
        meta = {
            "system_id": self.system_id,
            "num_nodes": self.num_nodes,
            "period": [_float_hex(self.period.start), _float_hex(self.period.end)],
            "has_rack": self.rack_of is not None,
            "high": _float_hex(self.clock.high),
            "seen": [
                [key, _float_hex(t)] for key, t in sorted(self.seen.items())
            ],
            "resolved": [
                [_NAMES[tc + 1], sv, done]
                for (tc, sv), done in self.resolved.items()
            ],
            "cond": cond,
        }
        if include_stats:
            meta["stats"] = {
                "accepted": self.stats.accepted,
                "late": self.stats.late,
                "duplicate": self.stats.duplicate,
                "ignored": self.stats.ignored,
                "invalid": self.stats.invalid,
            }
        return meta

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Array state, keyed for the checkpoint ``.npz`` payload."""
        owner = self._owner
        prefix = f"s{self.system_id}"
        arrays: dict[str, np.ndarray] = {}
        if self.rack_of is not None:
            arrays[f"{prefix}.rack"] = self.rack_of
        keys = owner._base_keys
        cell = self.index * _N_CODES * _N_SPANS
        for code, name in enumerate(_NAMES, start=ANY_CODE):
            store = self.store(code)
            arrays[f"{prefix}.k.{name}.times"] = store.times
            arrays[f"{prefix}.k.{name}.nodes"] = store.nodes
            for span in SPANS:
                lo, hi = owner._base_bounds[cell : cell + 2]
                arrays[f"{prefix}.b.{name}.{span.value}"] = (
                    keys[np.searchsorted(keys, lo) : np.searchsorted(keys, hi)] - lo
                )
                cell += 1
        return arrays


#: The wide scopes, in ``_wide_cells`` order.
_WIDE_SCOPES = (Scope.SYSTEM, Scope.RACK)


class StreamAnalysisState:
    """All systems' incremental state in shared columns, plus checkpoint
    orchestration.

    Every system has one *block* per selection, ordered by
    (system index, selection); the flat ``_times`` / ``_nodes`` columns
    hold every block's time-sorted events, with node ids offset into one
    node space (and rack ids into one rack space; a node of a system
    without a layout is its own rack).  A micro-batch therefore costs a
    fixed number of array operations however many systems it touches:
    one insert, one baseline-key merge, one due count, one
    :func:`~repro.core.windows.segment_hits` gather and one fold into
    the int64 counters.
    """

    def __init__(self, lateness_days: float = 0.0) -> None:
        """``lateness_days`` is the bounded out-of-order tolerance: events
        older than ``high - lateness_days`` are dropped as late.  ``0``
        suits in-order sources (archive replay); live feeds should budget
        their expected delivery skew."""
        if lateness_days < 0 or not math.isfinite(lateness_days):
            raise StreamStateError(
                f"lateness_days must be finite and >= 0, got {lateness_days}"
            )
        self.lateness_days = lateness_days
        self.systems: dict[int, SystemStreamState] = {}
        self._order: list[SystemStreamState] = []
        # Event columns and block bounds: block b is _bounds[b]:_bounds[b+1].
        self._times = np.empty(0)
        self._nodes = np.empty(0, dtype=np.int64)
        self._bounds = np.zeros(1, dtype=np.int64)
        # Resolution pointers per (block, span), relative to the block.
        self._resolved = np.zeros((0, _N_SPANS), dtype=np.int64)
        # (successes, trials) counters; the wide grids' one target is
        # any failure.
        self._node_cells = np.zeros(
            (0, _N_CODES, _N_CODES, _N_SPANS, 2), dtype=np.int64
        )
        self._wide_cells = np.zeros(
            (0, len(_WIDE_SCOPES), _N_CODES, 1, _N_SPANS, 2), dtype=np.int64
        )
        # Baseline (node, tile) keys: the (block, span) cell c owns the
        # key range _base_bounds[c]:_base_bounds[c+1]; sorted and unique.
        self._base_keys = np.empty(0, dtype=np.int64)
        self._base_bounds = np.zeros(1, dtype=np.int64)
        # Per system: node range, period and tiles.
        self._node_base = np.zeros(1, dtype=np.int64)
        self._start = np.empty(0)
        self._end = np.empty(0)
        self._n_windows = np.zeros((0, _N_SPANS), dtype=np.int64)
        # Per node (offset ids): rack id and rack peers (rack size - 1).
        self._rack = np.empty(0, dtype=np.int64)
        self._peers = np.empty(0, dtype=np.int64)

    def register_system(
        self,
        system_id: int,
        num_nodes: int,
        period: ObservationPeriod,
        rack_of: np.ndarray | None = None,
    ) -> SystemStreamState:
        """Declare one system (idempotent for identical declarations)."""
        existing = self.systems.get(system_id)
        if existing is not None:
            if (
                existing.num_nodes != num_nodes
                or existing.period != period
                or (existing.rack_of is None) != (rack_of is None)
                or (
                    rack_of is not None
                    and not np.array_equal(existing.rack_of, rack_of)
                )
            ):
                raise StreamStateError(
                    f"system {system_id} already registered with different "
                    "shape or rack layout"
                )
            return existing
        system = SystemStreamState(
            self, len(self._order), system_id, num_nodes, period, rack_of
        )
        self.systems[system_id] = system
        self._order.append(system)
        self._grow(system)
        return system

    def _grow(self, system: SystemStreamState) -> None:
        """Append one system's blocks, counters and node columns."""
        self._bounds = np.append(self._bounds, np.repeat(self._bounds[-1], _N_CODES))
        self._resolved = np.concatenate(
            (self._resolved, np.zeros((_N_CODES, _N_SPANS), np.int64))
        )
        self._node_cells = np.concatenate(
            (self._node_cells, np.zeros((1, *self._node_cells.shape[1:]), np.int64))
        )
        self._wide_cells = np.concatenate(
            (self._wide_cells, np.zeros((1, *self._wide_cells.shape[1:]), np.int64))
        )
        self._base_bounds = np.append(
            self._base_bounds,
            self._base_bounds[-1]
            + np.cumsum(np.tile(system.num_nodes * system.n_windows, _N_CODES)),
        )
        self._node_base = np.append(
            self._node_base, self._node_base[-1] + system.num_nodes
        )
        self._start = np.append(self._start, system.period.start)
        self._end = np.append(self._end, system.period.end)
        self._n_windows = np.concatenate((self._n_windows, system.n_windows[None]))
        if system.rack_of is None:
            racks = np.arange(system.num_nodes, dtype=np.int64)
            peers = np.zeros(system.num_nodes, dtype=np.int64)
        else:
            racks = system.rack_of
            peers = np.bincount(racks)[racks] - 1
        first_rack = int(self._rack.max()) + 1 if self._rack.size else 0
        self._rack = np.concatenate((self._rack, racks + first_rack))
        self._peers = np.concatenate((self._peers, peers))

    def register_archive(self, archive: Archive) -> None:
        """Register every system of an archive (metadata only)."""
        for ds in archive:
            self.register_system(
                ds.system_id, ds.num_nodes, ds.period, ds.rack_of
            )

    # ------------------------------------------------------------------
    # ingestion

    def ingest(self, events: Iterable[StreamEvent]) -> BatchStats:
        """Apply one micro-batch, then resolve newly-final windows."""
        stats = BatchStats()
        systems = self.systems
        index: list[int] = []
        times: list[float] = []
        nodes: list[int] = []
        stores: list[int] = []
        for event in events:
            system = systems.get(event.system_id)
            if system is None:
                stats.unknown_system += 1
                continue
            if event.kind != KIND_FAILURE:
                stats.ignored += 1
                system.stats.ignored += 1
                continue
            t = event.time
            if event.node_id >= system.num_nodes or not system.period.contains(t):
                stats.invalid += 1
                system.stats.invalid += 1
                continue
            if t < system.clock.watermark:
                stats.late += 1
                system.stats.late += 1
                continue
            if event.event_id in system.seen:
                stats.duplicate += 1
                system.stats.duplicate += 1
                continue
            system.clock.admit(t)
            system.seen[event.event_id] = t
            stats.accepted += 1
            system.stats.accepted += 1
            stats.touched.add(event.system_id)
            index.append(system.index)
            times.append(t)
            nodes.append(event.node_id)
            stores.append(_POSITION.get(event.category, 0))
        if index:
            self._insert(
                np.array(index, dtype=np.int64),
                np.array(times, dtype=float),
                np.array(nodes, dtype=np.int64),
                np.array(stores, dtype=np.int64),
            )
            touched = [systems[system_id] for system_id in sorted(stats.touched)]
            for system in touched:
                system.prune_seen()
            self._resolve(touched)
        self._gauge_pending()
        return stats

    def _insert(
        self,
        index: np.ndarray,
        times: np.ndarray,
        nodes: np.ndarray,
        stores: np.ndarray,
    ) -> None:
        """Insert admitted events into their blocks and baseline keys:
        every event into its system's ANY store, a categorised one into
        its category's store too (``stores`` holds each event's store
        position; 0, the ANY store, for an uncategorised event)."""
        nodes = nodes + self._node_base[index]
        has = stores > 0
        block = np.concatenate((index * _N_CODES, index[has] * _N_CODES + stores[has]))
        times = np.concatenate((times, times[has]))
        nodes = np.concatenate((nodes, nodes[has]))
        # Arrival order within (block, time): two stable sorts.
        order = np.argsort(times, kind="stable")
        order = order[np.argsort(block[order], kind="stable")]
        block, times, nodes = block[order], times[order], nodes[order]
        at = _bisect_right(
            self._times, self._bounds[block], self._bounds[block + 1], times
        )
        # ``np.insert`` keeps equal positions in the order given.
        self._times = np.insert(self._times, at, times)
        self._nodes = np.insert(self._nodes, at, nodes)
        self._bounds[1:] += np.cumsum(
            np.bincount(block, minlength=self._bounds.size - 1)
        )
        keys = self._baseline_keys(block, times, nodes)
        at = np.searchsorted(self._base_keys, keys)
        fresh = at == self._base_keys.size
        fresh[~fresh] = self._base_keys[at[~fresh]] != keys[~fresh]
        self._base_keys = np.insert(self._base_keys, at[fresh], keys[fresh])

    def _baseline_keys(
        self, block: np.ndarray, times: np.ndarray, nodes: np.ndarray
    ) -> np.ndarray:
        """Sorted distinct baseline keys of the entries ``(times, nodes)``
        of ``block`` (offset node ids): ``node * n_windows + tile``, the
        arithmetic of ``window_index``, offset into each (block, span)
        cell."""
        system = block // _N_CODES
        start = self._start[system][:, None]
        n_windows = self._n_windows[system]
        tile = np.floor((times[:, None] - start) / _SPAN_DAYS).astype(np.int64)
        valid = (times[:, None] >= start) & (tile >= 0) & (tile < n_windows)
        cell = block[:, None] * _N_SPANS + np.arange(_N_SPANS)
        keys = self._base_bounds[cell] + (
            (nodes - self._node_base[system])[:, None] * n_windows + tile
        )
        return sorted_distinct(keys[valid])

    def _resolve(self, systems: list[SystemStreamState]) -> None:
        """Fold every newly final (trigger, span) of ``systems`` into the
        counters and advance the resolution pointers.

        A trigger's window ``(t, t + days]`` is final once
        ``t + days < watermark``; stores are time-sorted, so the final
        triggers of a (block, span) are a prefix, found by counting the
        predicate over the unresolved tail.  All newly final triggers
        then resolve in one :func:`segment_hits` gather against every
        store of their own system.

        A trigger's hits depend only on its system, time, node and span,
        so the copies of one (system, time, node) -- an event's ANY and
        category entries, or repeated events -- share one gather over
        their longest alive span; censoring stays per copy.
        """
        index = np.array([system.index for system in systems], dtype=np.int64)
        watermark = np.array([system.clock.watermark for system in systems])
        blocks = (index[:, None] * _N_CODES + np.arange(_N_CODES)).ravel()
        first = self._bounds[blocks][:, None]
        done = first + self._resolved[blocks]
        end = np.broadcast_to(self._bounds[blocks + 1][:, None], done.shape)
        # The exact due prefix of each (block, span): count the final
        # entries of the unresolved tail.
        tail = concat_ranges(done.ravel(), end.ravel())
        cell = np.repeat(np.arange(done.size), (end - done).ravel())
        final = self._times[tail] + np.tile(_SPAN_DAYS, blocks.size)[cell] < (
            np.repeat(watermark, _N_CODES * _N_SPANS)[cell]
        )
        due = done + np.bincount(cell[final], minlength=done.size).reshape(
            done.shape
        )
        newly = concat_ranges(done.ravel(), due.ravel())
        self._resolved[blocks] = due - first
        if not newly.size:
            return
        span_of = np.repeat(np.tile(np.arange(_N_SPANS), blocks.size), (due - done).ravel())
        # alive[k, i]: trigger i is newly final at span k and uncensored.
        trig, column = np.unique(newly, return_inverse=True)
        alive = np.zeros((_N_SPANS, trig.size), dtype=bool)
        alive[span_of, column] = True
        block = np.searchsorted(self._bounds, trig, side="right") - 1
        system = block // _N_CODES
        trig_t = self._times[trig]
        # Censoring: the batch kernel's elementwise ``t + days <= end``.
        alive &= trig_t + _SPAN_DAYS[:, None] <= self._end[system]
        keep = alive.any(axis=0)
        alive, block, trig_t = alive[:, keep], block[keep], trig_t[keep]
        trig_n = self._nodes[trig[keep]]
        # One gather per distinct (time, node): node ids are offset per
        # system, so the pair also names the system.
        order = np.lexsort((trig_n, trig_t))
        head = run_heads(trig_t[order]) | run_heads(trig_n[order])
        starts = np.flatnonzero(head)
        distinct = np.empty(order.size, dtype=np.int64)
        distinct[order] = np.cumsum(head) - 1
        # Each distinct trigger's longest span alive in any of its copies.
        widest = np.where(
            np.logical_or.reduceat(alive[:, order], starts, axis=1),
            _SPAN_DAYS[:, None],
            -np.inf,
        ).argmax(axis=0)
        rep = order[starts]
        gather_t, gather_n = trig_t[rep], trig_n[rep]
        # Pairs: each distinct trigger against every store of its system,
        # as rows of ``done``.  A store's entries before its old pointer
        # at the trigger's longest span were final at the last watermark
        # and the trigger was not, so they lie before ``t``: both
        # searches start at that pointer.
        slot = np.empty(len(self._order), dtype=np.int64)
        slot[index] = np.arange(index.size)
        target = np.arange(_N_CODES)
        row = (slot[block[rep] // _N_CODES][:, None] * _N_CODES + target).ravel()
        lo = done[row, np.repeat(widest, _N_CODES)]
        hi = self._bounds[blocks[row] + 1]
        pair_t = np.repeat(gather_t, _N_CODES)
        # Each pair's segment (t, t + longest alive span] in its store.
        located = _bisect_right(
            self._times,
            np.concatenate((lo, lo)),
            np.concatenate((hi, hi)),
            np.concatenate(
                (pair_t, pair_t + np.repeat(_SPAN_DAYS[widest], _N_CODES))
            ),
        )
        hits = segment_hits(
            located[: lo.size],
            located[lo.size :],
            pair_t,
            np.repeat(gather_n, _N_CODES),
            self._times,
            self._nodes,
            _SPAN_DAYS,
            int(self._node_base[-1]),
            self._rack,
            np.tile(_WIDE_TARGET, gather_t.size),
        )
        self._fold(hits, distinct, alive, block, trig_n)

    def _fold(
        self,
        hits: ScopeHits,
        distinct: np.ndarray,
        alive: np.ndarray,
        block: np.ndarray,
        trig_n: np.ndarray,
    ) -> None:
        """Add resolved hits to the (successes, trials) counters.

        Hit pair ``p`` is distinct trigger ``p // _N_CODES`` against its
        system's store ``p % _N_CODES``; trigger copy ``i`` in ``block[i]``
        reads the pairs of distinct trigger ``distinct[i]`` at the spans
        ``alive[:, i]``.  Every counter adds one ``np.bincount`` over the
        flat cell index.  A system without a layout adds nothing at RACK
        scope: each of its nodes is its own rack, with no rack peers to
        hit or to count as trials.
        """
        span = np.arange(_N_SPANS)[:, None]
        # NODE cell [system, trigger, target, span]; the block numbers
        # (system, trigger) pairs.
        target = np.arange(_N_CODES)
        live = np.repeat(alive, _N_CODES, axis=1)
        cells = ((block[:, None] * _N_CODES + target).ravel() * _N_SPANS + span)[live]
        own = hits.own[:, (distinct[:, None] * _N_CODES + target).ravel()][live]
        node = self._node_cells.reshape(-1, 2)
        node[:, 0] += np.bincount(cells[own], minlength=node.shape[0])
        node[:, 1] += np.bincount(cells, minlength=node.shape[0])
        # Wide cell [system, scope, trigger, span] (one target, any
        # failure: pair 0 of each trigger); the RACK row follows the
        # SYSTEM row.
        system = block // _N_CODES
        cells = (
            (system * len(_WIDE_SCOPES) * _N_CODES + block % _N_CODES) * _N_SPANS
            + span
        )[alive]
        cells = np.concatenate((cells, cells + _N_CODES * _N_SPANS))
        pair = distinct * _N_CODES
        successes = np.concatenate(
            (hits.system[:, pair][alive], hits.rack[:, pair][alive])
        )
        trials = np.concatenate([
            np.broadcast_to(row, alive.shape)[alive]
            for row in (np.diff(self._node_base)[system] - 1, self._peers[trig_n])
        ])
        wide = self._wide_cells.reshape(-1, 2)
        for column, weights in ((0, successes), (1, trials)):
            # Integer weights below 2**53 sum exactly in float64.
            wide[:, column] += np.bincount(
                cells, weights, minlength=wide.shape[0]
            ).astype(np.int64)

    def _gauge_pending(self) -> None:
        """``stream.pending_triggers``: per span, stored triggers not yet
        resolved (0 everywhere once the stream is finalised)."""
        pending = (np.diff(self._bounds)[:, None] - self._resolved).sum(axis=0)
        for span, count in zip(SPANS, pending.tolist()):
            gauge_set("stream.pending_triggers", count, span=span.value)

    def finalize(self) -> None:
        """End-of-stream: resolve every pending window of every system."""
        for system in self._order:
            system.clock.seal()
            system.prune_seen()
        if self._order:
            self._resolve(self._order)
        self._gauge_pending()

    def watermarks(self) -> dict[int, float]:
        """Current per-system watermarks (``-inf`` before any event)."""
        return {
            system_id: self.systems[system_id].clock.watermark
            for system_id in sorted(self.systems)
        }

    # ------------------------------------------------------------------
    # pooled reads

    def pooled_any_target(self, span: Span) -> np.ndarray:
        """``(successes, trials)`` of every trigger selection against any
        target at one span, summed over every system in one reduction.

        Indexed ``[scope, trigger selection, 2]`` with scopes in
        (NODE, SYSTEM, RACK) order; row ``[s, i]`` is the sum over
        systems of :meth:`SystemStreamState.counts` of that scope and
        trigger with target ``None`` (streaming counterpart of
        :func:`repro.core.correlations.pooled_conditional`; systems
        without a layout hold no RACK counts, as the batch helper skips
        them).
        """
        k = SPANS.index(span)
        return np.concatenate(
            (self._node_cells[:, None, :, 0, k], self._wide_cells[:, :, :, 0, k]),
            axis=1,
        ).sum(axis=0)

    def pooled_baseline(self, target: Category | None, span: Span) -> Counts:
        """Baseline counts of one (target, span) summed over every system."""
        if not self._order:
            return Counts(0, 0)
        k = SPANS.index(span)
        cells = (np.arange(len(self._order)) * _N_CODES + _POSITION[target]) * _N_SPANS + k
        hits = np.searchsorted(self._base_keys, self._base_bounds[cells + 1])
        hits -= np.searchsorted(self._base_keys, self._base_bounds[cells])
        trials = self._n_windows[:, k] * np.diff(self._node_base)
        return Counts(int(hits.sum()), int(trials.sum()))

    def category_history(
        self, systems: list[SystemStreamState], since: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every category-store event of ``systems[i]`` after ``since[i]``.

        Returns ``(position in systems, times, offset node ids, category
        codes)``, grouped by system.  The ANY store is left out: events
        without a category carry no category information.
        """
        stored = np.arange(1, _N_CODES)
        index = np.array([system.index for system in systems], dtype=np.int64)
        blocks = (index[:, None] * _N_CODES + stored).ravel()
        hi = self._bounds[blocks + 1]
        lo = _bisect_right(
            self._times, self._bounds[blocks], hi, np.repeat(since, stored.size)
        )
        entries = concat_ranges(lo, hi)
        position = np.repeat(np.arange(blocks.size) // stored.size, hi - lo)
        codes = np.repeat(np.tile(stored - 1, index.size), hi - lo)
        return position, self._times[entries], self._nodes[entries], codes

    @property
    def node_offsets(self) -> np.ndarray:
        """Offset of each system's node ids in the shared node space, by
        system index (one trailing entry: the node count)."""
        return self._node_base

    @property
    def node_racks(self) -> np.ndarray:
        """Rack id of every node of the shared node space (a node of a
        system without a layout is its own rack)."""
        return self._rack

    # ------------------------------------------------------------------
    # checkpoint payload

    def _meta_payload(self, include_stats: bool = True) -> dict:
        return {
            "version": CHECKPOINT_VERSION,
            "config": _config_payload(self.lateness_days),
            "systems": [
                self.systems[system_id].to_meta(include_stats=include_stats)
                for system_id in sorted(self.systems)
            ],
        }

    def _array_payload(self) -> dict[str, np.ndarray]:
        arrays: dict[str, np.ndarray] = {}
        for system_id in sorted(self.systems):
            arrays.update(self.systems[system_id].to_arrays())
        return arrays

    def digest(self) -> str:
        """SHA-256 over the canonical serialised state.

        Two states with equal digests hold bit-identical stores,
        counters, watermarks and dedup windows -- the equality the
        checkpoint/restore tests assert.
        """
        hasher = hashlib.sha256()
        hasher.update(
            json.dumps(
                self._meta_payload(include_stats=False), sort_keys=True
            ).encode()
        )
        arrays = self._array_payload()
        for key in sorted(arrays):
            hasher.update(key.encode())
            hasher.update(np.ascontiguousarray(arrays[key]).tobytes())
        return hasher.hexdigest()

    def _restore(self, systems_meta: list, arrays: Mapping[str, np.ndarray]) -> None:
        """Rebuild every system from what its stream admitted -- shape,
        watermark, dedup window, dispositions and event stores -- and
        derive its baseline keys, resolution pointers and counters with
        the ingest path's own code, refusing a checkpoint whose stored
        derivations differ from the rebuilt ones."""
        times, nodes, sizes = [], [], []
        for meta in systems_meta:
            system_id = int(meta["system_id"])
            if system_id in self.systems:
                raise StreamStateError(f"checkpoint repeats system {system_id}")
            prefix = f"s{system_id}"
            system = self.register_system(
                system_id,
                int(meta["num_nodes"]),
                ObservationPeriod(
                    _hex_float(meta["period"][0]), _hex_float(meta["period"][1])
                ),
                arrays[f"{prefix}.rack"] if meta["has_rack"] else None,
            )
            system.clock.high = _hex_float(meta["high"])
            stats = meta["stats"]
            system.stats.accepted = int(stats["accepted"])
            system.stats.late = int(stats["late"])
            system.stats.duplicate = int(stats["duplicate"])
            system.stats.ignored = int(stats["ignored"])
            system.stats.invalid = int(stats["invalid"])
            system.seen = {key: _hex_float(t) for key, t in meta["seen"]}
            for name in _NAMES:
                t = np.asarray(arrays[f"{prefix}.k.{name}.times"], dtype=float)
                n = np.asarray(arrays[f"{prefix}.k.{name}.nodes"], dtype=np.int64)
                _check_store(system, name, t, n)
                times.append(t)
                nodes.append(n + self._node_base[system.index])
                sizes.append(t.size)
        if times:
            self._bounds[1:] = np.cumsum(sizes)
            self._times = np.concatenate(times)
            self._nodes = np.concatenate(nodes)
            block = np.repeat(np.arange(len(sizes)), sizes)
            self._base_keys = self._baseline_keys(block, self._times, self._nodes)
        for system, meta in zip(self._order, systems_meta):
            # One system at a time: one resolve over every system would
            # hold all of their gathers in memory at once.
            self._resolve([system])
            rebuilt = system.to_meta(include_stats=False)
            for part in ("resolved", "cond"):
                if rebuilt[part] != meta[part]:
                    raise _mismatch(f"s{system.system_id} {part}")
        rebuilt = self._array_payload()
        for key in sorted(rebuilt.keys() | arrays.keys()):
            if key not in rebuilt or key not in arrays or not np.array_equal(
                rebuilt[key], arrays[key]
            ):
                raise _mismatch(key)


def _mismatch(part: str) -> StreamStateError:
    return StreamStateError(
        f"checkpoint {part} does not match the state rebuilt from its "
        "event stores"
    )


def _check_store(
    system: SystemStreamState, name: str, times: np.ndarray, nodes: np.ndarray
) -> None:
    """Reject a checkpointed store no stream could have produced."""
    label = f"checkpoint store s{system.system_id}.k.{name}"
    if times.shape != nodes.shape or times.ndim != 1:
        raise StreamStateError(f"{label}: times and nodes differ in shape")
    if not times.size:
        return
    if np.any(np.diff(times) < 0) or np.isnan(times).any():
        raise StreamStateError(f"{label}: times are not sorted")
    if not (system.period.start <= times[0] and times[-1] < system.period.end):
        raise StreamStateError(f"{label}: times fall outside the period")
    if nodes.min() < 0 or nodes.max() >= system.num_nodes:
        raise StreamStateError(
            f"{label}: node ids outside 0..{system.num_nodes - 1}"
        )


# ----------------------------------------------------------------------
# checkpoint files


@dataclass(frozen=True)
class CheckpointInfo:
    """Where one checkpoint landed and how big it is."""

    directory: Path
    sequence: int
    bytes: int


_LATEST = "LATEST"

#: Checkpoint generations kept on disk: the newest and the one before.
_KEEP = 2


def _checkpoint_paths(directory: Path, sequence: int) -> tuple[Path, Path]:
    stem = f"ckpt-{sequence:06d}"
    return directory / f"{stem}.meta.json", directory / f"{stem}.state.npz"


def latest_checkpoint_sequence(directory: Path | str) -> int | None:
    """Sequence number of the newest complete checkpoint, if any."""
    marker = Path(directory) / _LATEST
    try:
        return int(marker.read_text().strip())
    except (OSError, ValueError):
        return None


def write_checkpoint(
    state: StreamAnalysisState, directory: Path | str
) -> CheckpointInfo:
    """Write a new checkpoint generation and atomically publish it.

    Both payload files are written in full before the ``LATEST`` marker
    is swapped in with an atomic rename, so a crash mid-write leaves the
    previous generation intact.  Generations older than the newest two
    are pruned.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    latest = latest_checkpoint_sequence(directory)
    sequence = 1 if latest is None else latest + 1
    meta_path, npz_path = _checkpoint_paths(directory, sequence)
    with tel_span("stream.checkpoint", sequence=sequence):
        meta_path.write_text(
            json.dumps(state._meta_payload(), sort_keys=True)
        )
        with open(npz_path, "wb") as handle:
            np.savez(handle, **state._array_payload())
        marker_tmp = directory / f"{_LATEST}.tmp"
        marker_tmp.write_text(f"{sequence}\n")
        os.replace(marker_tmp, directory / _LATEST)
        size = meta_path.stat().st_size + npz_path.stat().st_size
        for stale in sorted(directory.glob("ckpt-*.meta.json")):
            stale_seq = int(stale.stem.split("-")[1].split(".")[0])
            if stale_seq <= sequence - _KEEP:
                stale_meta, stale_npz = _checkpoint_paths(directory, stale_seq)
                stale_meta.unlink(missing_ok=True)
                stale_npz.unlink(missing_ok=True)
    counter_add("stream.checkpoints", 1)
    gauge_set("stream.checkpoint_bytes", size)
    return CheckpointInfo(directory=directory, sequence=sequence, bytes=size)


def load_checkpoint(
    directory: Path | str, lateness_days: float | None = None
) -> StreamAnalysisState:
    """Restore the newest checkpoint into a fresh state.

    The lateness budget is read from the checkpoint itself; passing
    ``lateness_days`` additionally asserts it matches (a consumer
    restarted with a different budget must not silently resume).  A
    checkpoint of any other grid than this module's is refused.
    """
    directory = Path(directory)
    sequence = latest_checkpoint_sequence(directory)
    if sequence is None:
        raise StreamStateError(f"no checkpoint found in {directory}")
    meta_path, npz_path = _checkpoint_paths(directory, sequence)
    try:
        meta = json.loads(meta_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise StreamStateError(f"unreadable checkpoint meta: {exc}") from exc
    version = meta.get("version") if isinstance(meta, dict) else None
    if version != CHECKPOINT_VERSION:
        raise StreamStateError(
            f"checkpoint version {version} is not supported (expected "
            f"{CHECKPOINT_VERSION}); regenerate the checkpoint"
        )
    try:
        with np.load(npz_path) as payload:
            arrays = {key: payload[key] for key in payload.files}
        config = meta["config"]
        if lateness_days is None:
            lateness_days = _hex_float(config["lateness_days"])
        if config != _config_payload(lateness_days):
            raise StreamStateError(
                "checkpoint was written under a different stream "
                "configuration"
            )
        state = StreamAnalysisState(lateness_days)
        state._restore(meta["systems"], arrays)
    except StreamStateError:
        raise
    except (OSError, EOFError, zipfile.BadZipFile, LookupError, TypeError,
            ValueError) as exc:
        raise StreamStateError(
            f"checkpoint {sequence} is unreadable or incomplete: {exc!r}"
        ) from exc
    return state


class Checkpointer:
    """Periodic checkpoint writer (every N accepted events)."""

    def __init__(self, directory: Path | str, every: int = 0) -> None:
        if every < 0:
            raise StreamStateError(f"every must be >= 0, got {every}")
        self.directory = Path(directory)
        self.every = every
        self._pending = 0
        self.last: CheckpointInfo | None = None

    def maybe(
        self, state: StreamAnalysisState, new_events: int
    ) -> CheckpointInfo | None:
        """Checkpoint when ``every`` accepted events have accumulated."""
        self._pending += new_events
        if not self.every or self._pending < self.every:
            return None
        return self.write(state)

    def write(self, state: StreamAnalysisState) -> CheckpointInfo:
        """Force a checkpoint now."""
        self.last = write_checkpoint(state, self.directory)
        self._pending = 0
        return self.last
