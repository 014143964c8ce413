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
  :func:`repro.core.windows.window_scope_hits`, which the batch grids
  run on too; censoring is the same elementwise
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
  the same state yields byte-identical payloads.
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

from ..core.windows import Counts, Scope, window_scope_hits
from ..records.dataset import Archive
from ..records.taxonomy import Category, all_categories
from ..records.timeutil import ALL_SPANS, ObservationPeriod, Span, count_windows
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

_CATEGORY_CODES: dict[Category, int] = {
    c: i for i, c in enumerate(all_categories())
}
_CATEGORY_BY_CODE: dict[int, Category] = {
    i: c for c, i in _CATEGORY_CODES.items()
}


def selection_code(selection: Category | None) -> int:
    """Integer code of a category selection (``ANY_CODE`` for ``None``)."""
    return ANY_CODE if selection is None else _CATEGORY_CODES[selection]


def _code_name(code: int) -> str:
    return "any" if code == ANY_CODE else _CATEGORY_BY_CODE[code].value


def _name_code(name: str) -> int:
    if name == "any":
        return ANY_CODE
    return _CATEGORY_CODES[Category(name)]


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


@dataclass(frozen=True)
class StreamAnalysisConfig:
    """What the incremental analysis tracks.

    Attributes:
        spans: window lengths of the conditional/baseline grids.
        lateness_days: bounded out-of-order tolerance; events older
            than ``high - lateness_days`` are dropped as late.  ``0``
            suits in-order sources (archive replay); live feeds should
            budget their expected delivery skew.
        selections: trigger/target category selections of the NODE-scope
            grid (``None`` = any failure).
        wide_targets: target selections of the RACK/SYSTEM-scope grids
            (kept narrow by default: the paper's rack/system analyses
            condition on the trigger type, not the target type).
    """

    spans: tuple[Span, ...] = ALL_SPANS
    lateness_days: float = 0.0
    selections: tuple[Category | None, ...] = (None, *all_categories())
    wide_targets: tuple[Category | None, ...] = (None,)

    def __post_init__(self) -> None:
        if self.lateness_days < 0 or not math.isfinite(self.lateness_days):
            raise StreamStateError(
                f"lateness_days must be finite and >= 0, got "
                f"{self.lateness_days}"
            )
        if not self.spans or not self.selections:
            raise StreamStateError("spans and selections must be non-empty")
        for target in self.wide_targets:
            if target not in self.selections:
                raise StreamStateError(
                    f"wide target {target!r} must also be a selection"
                )

    def to_payload(self) -> dict:
        """JSON-safe description (stored in checkpoints)."""
        return {
            "lateness_days": _float_hex(self.lateness_days),
            "spans": [span.value for span in self.spans],
            "selections": [_code_name(selection_code(s)) for s in self.selections],
            "wide_targets": [
                _code_name(selection_code(s)) for s in self.wide_targets
            ],
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "StreamAnalysisConfig":
        def _selection(name: str) -> Category | None:
            code = _name_code(name)
            return None if code == ANY_CODE else _CATEGORY_BY_CODE[code]

        return cls(
            spans=tuple(Span(v) for v in payload["spans"]),
            lateness_days=_hex_float(payload["lateness_days"]),
            selections=tuple(_selection(n) for n in payload["selections"]),
            wide_targets=tuple(_selection(n) for n in payload["wide_targets"]),
        )


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


class StreamingEventIndex:
    """Incremental counterpart of :class:`repro.records.dataset.EventIndex`.

    Keeps one event selection time-sorted (``times`` / ``nodes``) under
    streaming insertion.  Arrivals are buffered and merged into the
    sorted arrays in one pass when the arrays are next read (once per
    micro-batch).  An arrival lands after every stored event of the same
    time and after earlier arrivals of that time -- the order per-event
    ``bisect_right`` insertion builds, which checkpoints and the state
    digest record.
    """

    __slots__ = ("_times", "_nodes", "_pending")

    def __init__(
        self, times: np.ndarray | None = None, nodes: np.ndarray | None = None
    ) -> None:
        self._times = np.array(() if times is None else times, dtype=float)
        self._nodes = np.array(() if nodes is None else nodes, dtype=np.int64)
        self._pending: list[tuple[float, int]] = []

    def __len__(self) -> int:
        return int(self._times.size) + len(self._pending)

    def add(self, time: float, node: int) -> None:
        """Queue one event for the next merge."""
        self._pending.append((time, node))

    def _merge(self) -> None:
        new_t = np.array([t for t, _ in self._pending], dtype=float)
        new_n = np.array([n for _, n in self._pending], dtype=np.int64)
        self._pending.clear()
        order = np.argsort(new_t, kind="stable")
        new_t, new_n = new_t[order], new_n[order]
        if not self._times.size or new_t[0] >= self._times[-1]:
            # In-order arrivals (the common case) append.
            self._times = np.concatenate((self._times, new_t))
            self._nodes = np.concatenate((self._nodes, new_n))
            return
        # ``np.insert`` keeps equal positions in the order given.
        at = np.searchsorted(self._times, new_t, side="right")
        self._times = np.insert(self._times, at, new_t)
        self._nodes = np.insert(self._nodes, at, new_n)

    @property
    def times(self) -> np.ndarray:
        """Time-sorted event times (read-only use)."""
        if self._pending:
            self._merge()
        return self._times

    @property
    def nodes(self) -> np.ndarray:
        """Node ids aligned with :attr:`times` (read-only use)."""
        if self._pending:
            self._merge()
        return self._nodes

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(times, nodes)`` snapshot for checkpointing."""
        return self.times.copy(), self.nodes.copy()


def _due_prefix(times: np.ndarray, days: float, watermark: float) -> int:
    """Length of the prefix with ``t + days < watermark`` (final windows).

    ``searchsorted`` on ``watermark - days`` lands within a float ulp of
    the boundary; the scalar walk then enforces the *exact* elementwise
    predicate the correctness argument needs.
    """
    n = int(times.size)
    if watermark == math.inf:
        return n
    pos = int(np.searchsorted(times, watermark - days, side="left"))
    while pos > 0 and not (times[pos - 1] + days < watermark):
        pos -= 1
    while pos < n and times[pos] + days < watermark:
        pos += 1
    return pos


def _row_sums(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Integer sums of ``values`` over the blocks ``bounds[r]:bounds[r+1]``."""
    totals = np.zeros(
        (*values.shape[:-1], values.shape[-1] + 1), dtype=np.int64
    )
    np.cumsum(values, axis=-1, out=totals[..., 1:])
    return totals[..., bounds[1:]] - totals[..., bounds[:-1]]


def _window_slot(t: float, start: float, days: float, n_windows: int) -> int:
    """Tiled-window index of ``t`` (same arithmetic as ``window_index``)."""
    if t < start:
        return -1
    idx = math.floor((t - start) / days)
    if idx < 0 or idx >= n_windows:
        return -1
    return int(idx)


class SystemStreamState:
    """One system's incremental stores, counters and watermark."""

    def __init__(
        self,
        system_id: int,
        num_nodes: int,
        period: ObservationPeriod,
        rack_of: np.ndarray | None,
        config: StreamAnalysisConfig,
    ) -> None:
        if num_nodes < 1:
            raise StreamStateError(f"num_nodes must be >= 1, got {num_nodes}")
        self.system_id = system_id
        self.num_nodes = num_nodes
        self.period = period
        self.config = config
        if rack_of is not None:
            rack_of = np.asarray(rack_of, dtype=np.int64)
            if rack_of.shape != (num_nodes,):
                raise StreamStateError(
                    "rack_of must map every node of the system to a rack"
                )
            self._rack_sizes = np.bincount(
                rack_of, minlength=int(rack_of.max()) + 1
            )
        else:
            self._rack_sizes = None
        self.rack_of = rack_of
        self.clock = WatermarkClock(config.lateness_days)
        self.stats = BatchStats()
        self.seen: dict[str, float] = {}
        self._codes = [selection_code(s) for s in config.selections]
        self._wide_codes = [selection_code(s) for s in config.wide_targets]
        self.stores: dict[int, StreamingEventIndex] = {
            code: StreamingEventIndex() for code in self._codes
        }
        # (span value, days, tiled windows) per span, in config order.
        self._tiles = [
            (span.value, span.days, count_windows(period, span))
            for span in config.spans
        ]
        self._span_days = [days for _, days, _ in self._tiles]
        self.n_windows = {sv: n for sv, _, n in self._tiles}
        self.resolved: dict[tuple[int, str], int] = {}
        self.cond: dict[tuple[str, int, int, str], list[int]] = {}
        for tc in self._codes:
            for span in config.spans:
                self.resolved[(tc, span.value)] = 0
        for tc in self._codes:
            for gc in self._codes:
                for span in config.spans:
                    self.cond[(Scope.NODE.value, tc, gc, span.value)] = [0, 0]
        wide_scopes = [Scope.SYSTEM] + ([Scope.RACK] if rack_of is not None else [])
        for scope in wide_scopes:
            for tc in self._codes:
                for gc in self._wide_codes:
                    for span in config.spans:
                        self.cond[(scope.value, tc, gc, span.value)] = [0, 0]
        self.base_keys: dict[tuple[int, str], set[int]] = {
            (gc, span.value): set()
            for gc in self._codes
            for span in config.spans
        }

    # ------------------------------------------------------------------
    # ingestion

    def observe(self, event: StreamEvent) -> str:
        """Apply one event; returns its disposition."""
        if event.kind != KIND_FAILURE:
            return "ignored"
        if event.node_id >= self.num_nodes or not self.period.contains(
            event.time
        ):
            return "invalid"
        if event.time < self.clock.watermark:
            return "late"
        if event.event_id in self.seen:
            return "duplicate"
        self.clock.admit(event.time)
        self.seen[event.event_id] = event.time
        code = (
            selection_code(event.category)
            if event.category is not None
            else None
        )
        for store_code in (ANY_CODE, code):
            if store_code is None or store_code not in self.stores:
                continue
            self.stores[store_code].add(event.time, event.node_id)
            for sv, days, n_windows in self._tiles:
                slot = _window_slot(
                    event.time, self.period.start, days, n_windows
                )
                if slot >= 0:
                    self.base_keys[(store_code, sv)].add(
                        event.node_id * n_windows + slot
                    )
        return "accepted"

    def prune_seen(self) -> None:
        """Drop dedup entries below the watermark (no longer admissible)."""
        watermark = self.clock.watermark
        if watermark == -math.inf:
            return
        dead = [key for key, t in self.seen.items() if t < watermark]
        for key in dead:
            del self.seen[key]

    def seal(self) -> None:
        """End-of-stream: resolve every pending window."""
        self.clock.seal()
        self.prune_seen()
        self.resolve()

    # ------------------------------------------------------------------
    # window resolution

    def resolve(self) -> None:
        """Advance every (trigger, span) pointer up to the watermark."""
        watermark = self.clock.watermark
        if watermark == -math.inf:
            return
        due = {
            (tc, sv): _due_prefix(self.stores[tc].times, days, watermark)
            for tc in self._codes
            for sv, days, _ in self._tiles
        }
        if due != self.resolved:
            self._resolve_range(due)
            self.resolved.update(due)

    def _resolve_range(self, due: dict[tuple[int, str], int]) -> None:
        """Fold the triggers between the old and ``due`` pointers into
        every counter cell.

        Each trigger store with newly final triggers contributes one row
        -- the union of its spans' ranges -- to a single trigger batch,
        which one :func:`~repro.core.windows.window_scope_hits` gather
        resolves against every target store, span and scope.
        """
        keys = [[(tc, sv) for sv, _, _ in self._tiles] for tc in self._codes]
        start = np.array([[self.resolved[key] for key in row] for row in keys])
        end = np.array([[due[key] for key in row] for row in keys])
        rows = np.flatnonzero((end > start).any(axis=1))
        ranges = []
        for r in rows:
            first = int(start[r][end[r] > start[r]].min())
            ranges.append((self.stores[self._codes[r]], first, int(end[r].max())))
        trig_t = np.concatenate([store.times[lo:hi] for store, lo, hi in ranges])
        trig_n = np.concatenate([store.nodes[lo:hi] for store, lo, hi in ranges])
        position = np.concatenate([np.arange(lo, hi) for _, lo, hi in ranges])
        bounds = np.cumsum([0] + [hi - lo for _, lo, hi in ranges])
        code_of = rows[np.repeat(np.arange(rows.size), np.diff(bounds))]
        # alive[k]: the triggers newly final at span k whose window is
        # complete -- the batch kernel's elementwise censoring predicate.
        alive = (
            (start[code_of].T <= position)
            & (position < end[code_of].T)
            & (trig_t + np.array(self._span_days)[:, None] <= self.period.end)
        )
        wide = [
            self.num_nodes > 1 and gc in self._wide_codes for gc in self._codes
        ]
        hits = window_scope_hits(
            trig_t,
            trig_n,
            [(self.stores[gc].times, self.stores[gc].nodes) for gc in self._codes],
            self._span_days,
            self.num_nodes,
            self.rack_of,
            wide,
        )
        n_alive = _row_sums(alive, bounds).tolist()
        alive = alive[:, None, :]
        own = _row_sums(hits.own & alive, bounds).tolist()
        system = _row_sums(np.where(alive, hits.system, 0), bounds).tolist()
        if hits.rack is not None:
            peers = self._rack_sizes[self.rack_of[trig_n]] - 1
            rack_trials = _row_sums(
                np.where(alive[:, 0], peers, 0), bounds
            ).tolist()
            rack = _row_sums(np.where(alive, hits.rack, 0), bounds).tolist()
        for k, (sv, _, _) in enumerate(self._tiles):
            for g, gc in enumerate(self._codes):
                for r, tc in enumerate(self._codes[i] for i in rows):
                    cell = self.cond[(Scope.NODE.value, tc, gc, sv)]
                    cell[0] += own[k][g][r]
                    cell[1] += n_alive[k][r]
                    if not wide[g]:
                        continue
                    cell = self.cond[(Scope.SYSTEM.value, tc, gc, sv)]
                    cell[0] += system[k][g][r]
                    cell[1] += n_alive[k][r] * (self.num_nodes - 1)
                    if hits.rack is None:
                        continue
                    cell = self.cond[(Scope.RACK.value, tc, gc, sv)]
                    cell[0] += rack[k][g][r]
                    cell[1] += rack_trials[k][r]

    # ------------------------------------------------------------------
    # reads

    def counts(
        self,
        scope: Scope,
        trigger: Category | None,
        target: Category | None,
        span: Span,
    ) -> Counts:
        """Resolved conditional counts of one grid cell."""
        key = (
            scope.value,
            selection_code(trigger),
            selection_code(target),
            span.value,
        )
        try:
            cell = self.cond[key]
        except KeyError as exc:
            raise StreamStateError(
                f"cell {scope}/{trigger}/{target}/{span} is not tracked by "
                "this configuration"
            ) from exc
        return Counts(cell[0], cell[1])

    def baseline(self, target: Category | None, span: Span) -> Counts:
        """Tiled-window baseline counts for one (target, span) cell."""
        keys = self.base_keys[(selection_code(target), span.value)]
        return Counts(len(keys), self.num_nodes * self.n_windows[span.value])

    def conditional_grid(self, scope: Scope) -> list[list[list[Counts]]]:
        """The trigger x target x span grid at one scope (batch layout)."""
        targets = (
            self.config.selections
            if scope is Scope.NODE
            else self.config.wide_targets
        )
        return [
            [
                [self.counts(scope, trigger, target, span) for span in self.config.spans]
                for target in targets
            ]
            for trigger in self.config.selections
        ]

    def baseline_grid(self) -> list[list[Counts]]:
        """The target x span baseline grid (batch layout)."""
        return [
            [self.baseline(target, span) for span in self.config.spans]
            for target in self.config.selections
        ]

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
                [_code_name(tc), sv, done]
                for (tc, sv), done in self.resolved.items()
            ],
            "cond": [
                [scope, _code_name(tc), _code_name(gc), sv, cell[0], cell[1]]
                for (scope, tc, gc, sv), cell in self.cond.items()
            ],
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
        prefix = f"s{self.system_id}"
        arrays: dict[str, np.ndarray] = {}
        if self.rack_of is not None:
            arrays[f"{prefix}.rack"] = self.rack_of
        for code in self._codes:
            times, nodes = self.stores[code].to_arrays()
            arrays[f"{prefix}.k.{_code_name(code)}.times"] = times
            arrays[f"{prefix}.k.{_code_name(code)}.nodes"] = nodes
        for (code, sv), keys in self.base_keys.items():
            arrays[f"{prefix}.b.{_code_name(code)}.{sv}"] = np.array(
                sorted(keys), dtype=np.int64
            )
        return arrays

    @classmethod
    def from_payload(
        cls,
        meta: Mapping,
        arrays: Mapping[str, np.ndarray],
        config: StreamAnalysisConfig,
    ) -> "SystemStreamState":
        system_id = int(meta["system_id"])
        prefix = f"s{system_id}"
        rack_of = arrays[f"{prefix}.rack"] if meta["has_rack"] else None
        state = cls(
            system_id=system_id,
            num_nodes=int(meta["num_nodes"]),
            period=ObservationPeriod(
                _hex_float(meta["period"][0]), _hex_float(meta["period"][1])
            ),
            rack_of=rack_of,
            config=config,
        )
        state.clock.high = _hex_float(meta["high"])
        stats = meta["stats"]
        state.stats.accepted = int(stats["accepted"])
        state.stats.late = int(stats["late"])
        state.stats.duplicate = int(stats["duplicate"])
        state.stats.ignored = int(stats["ignored"])
        state.stats.invalid = int(stats["invalid"])
        state.seen = {key: _hex_float(t) for key, t in meta["seen"]}
        for name, sv, done in meta["resolved"]:
            key = (_name_code(name), sv)
            if key not in state.resolved:
                raise StreamStateError(
                    f"checkpoint resolution pointer {name}/{sv} does not "
                    "match the configuration"
                )
            state.resolved[key] = int(done)
        for scope, tc_name, gc_name, sv, successes, trials in meta["cond"]:
            key = (scope, _name_code(tc_name), _name_code(gc_name), sv)
            if key not in state.cond:
                raise StreamStateError(
                    f"checkpoint cell {scope}/{tc_name}/{gc_name}/{sv} does "
                    "not match the configuration"
                )
            state.cond[key] = [int(successes), int(trials)]
        for code in state._codes:
            name = _code_name(code)
            state.stores[code] = StreamingEventIndex(
                arrays[f"{prefix}.k.{name}.times"],
                arrays[f"{prefix}.k.{name}.nodes"],
            )
            for span in config.spans:
                state.base_keys[(code, span.value)] = {
                    int(k) for k in arrays[f"{prefix}.b.{name}.{span.value}"]
                }
        return state


class StreamAnalysisState:
    """All systems' incremental state, plus checkpoint orchestration."""

    def __init__(self, config: StreamAnalysisConfig | None = None) -> None:
        self.config = config if config is not None else StreamAnalysisConfig()
        self.systems: dict[int, SystemStreamState] = {}

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
            ):
                raise StreamStateError(
                    f"system {system_id} already registered with different "
                    "shape"
                )
            return existing
        state = SystemStreamState(
            system_id, num_nodes, period, rack_of, self.config
        )
        self.systems[system_id] = state
        return state

    def register_archive(self, archive: Archive) -> None:
        """Register every system of an archive (metadata only)."""
        for ds in archive:
            self.register_system(
                ds.system_id, ds.num_nodes, ds.period, ds.rack_of
            )

    def ingest(self, events: Iterable[StreamEvent]) -> BatchStats:
        """Apply one micro-batch, then resolve newly-final windows."""
        stats = BatchStats()
        for event in events:
            system = self.systems.get(event.system_id)
            if system is None:
                stats.unknown_system += 1
                continue
            disposition = system.observe(event)
            if disposition == "accepted":
                stats.accepted += 1
                system.stats.accepted += 1
                stats.touched.add(event.system_id)
            elif disposition == "late":
                stats.late += 1
                system.stats.late += 1
            elif disposition == "duplicate":
                stats.duplicate += 1
                system.stats.duplicate += 1
            elif disposition == "ignored":
                stats.ignored += 1
                system.stats.ignored += 1
            else:
                stats.invalid += 1
                system.stats.invalid += 1
        for system_id in sorted(stats.touched):
            system = self.systems[system_id]
            system.prune_seen()
            system.resolve()
        return stats

    def finalize(self) -> None:
        """End-of-stream: resolve every pending window of every system."""
        for system_id in sorted(self.systems):
            self.systems[system_id].seal()

    def watermarks(self) -> dict[int, float]:
        """Current per-system watermarks (``-inf`` before any event)."""
        return {
            system_id: self.systems[system_id].clock.watermark
            for system_id in sorted(self.systems)
        }

    # ------------------------------------------------------------------
    # checkpoint payload

    def _meta_payload(self, include_stats: bool = True) -> dict:
        return {
            "version": CHECKPOINT_VERSION,
            "config": self.config.to_payload(),
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


# ----------------------------------------------------------------------
# checkpoint files


@dataclass(frozen=True)
class CheckpointInfo:
    """Where one checkpoint landed and how big it is."""

    directory: Path
    sequence: int
    bytes: int


_LATEST = "LATEST"


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
    state: StreamAnalysisState, directory: Path | str, keep: int = 2
) -> CheckpointInfo:
    """Write a new checkpoint generation and atomically publish it.

    Both payload files are written in full before the ``LATEST`` marker
    is swapped in with an atomic rename, so a crash mid-write leaves the
    previous generation intact.  Older generations beyond ``keep`` are
    pruned.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    latest = latest_checkpoint_sequence(directory)
    sequence = 1 if latest is None else latest + 1
    meta_path, npz_path = _checkpoint_paths(directory, sequence)
    with tel_span("stream.checkpoint", sequence=sequence):
        meta_path.write_text(
            json.dumps(state._meta_payload(), sort_keys=True, indent=1)
        )
        with open(npz_path, "wb") as handle:
            np.savez(handle, **state._array_payload())
        marker_tmp = directory / f"{_LATEST}.tmp"
        marker_tmp.write_text(f"{sequence}\n")
        os.replace(marker_tmp, directory / _LATEST)
        size = meta_path.stat().st_size + npz_path.stat().st_size
        for stale in sorted(directory.glob("ckpt-*.meta.json")):
            stale_seq = int(stale.stem.split("-")[1].split(".")[0])
            if stale_seq <= sequence - keep:
                stale_meta, stale_npz = _checkpoint_paths(directory, stale_seq)
                stale_meta.unlink(missing_ok=True)
                stale_npz.unlink(missing_ok=True)
    counter_add("stream.checkpoints", 1)
    gauge_set("stream.checkpoint_bytes", size)
    return CheckpointInfo(directory=directory, sequence=sequence, bytes=size)


def load_checkpoint(
    directory: Path | str, config: StreamAnalysisConfig | None = None
) -> StreamAnalysisState:
    """Restore the newest checkpoint into a fresh state.

    The configuration is rebuilt from the checkpoint itself; passing
    ``config`` additionally asserts it matches (a consumer restarted
    with a different grid must not silently resume).
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
        restored_config = StreamAnalysisConfig.from_payload(meta["config"])
        if config is not None and config != restored_config:
            raise StreamStateError(
                "checkpoint was written under a different stream "
                "configuration"
            )
        state = StreamAnalysisState(restored_config)
        for system_meta in meta["systems"]:
            system = SystemStreamState.from_payload(
                system_meta, arrays, restored_config
            )
            state.systems[system.system_id] = system
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

    def __init__(
        self, directory: Path | str, every: int = 0, keep: int = 2
    ) -> None:
        if every < 0:
            raise StreamStateError(f"every must be >= 0, got {every}")
        self.directory = Path(directory)
        self.every = every
        self.keep = keep
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
        self.last = write_checkpoint(state, self.directory, keep=self.keep)
        self._pending = 0
        return self.last
