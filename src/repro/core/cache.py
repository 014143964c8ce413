"""Per-system memoization of analysis intermediates.

A full report recomputes the same quantities many times: the ANY-failure
weekly baseline alone is needed by the correlations, nodes, power and
temperature sections, and the per-node usage/temperature summaries are
shared between the usage, users, temperature and regression sections.
:class:`AnalysisCache` attaches one memo table to each
:class:`~repro.records.dataset.SystemDataset` (stashed in the instance
dict, so the frozen dataclass itself stays immutable) and serves:

* window :class:`~repro.core.windows.Counts`, keyed by
  ``(trigger, target, span, scope)`` and filled via the batched kernels
  (:func:`~repro.core.windows.conditional_counts_batch` /
  :func:`~repro.core.windows.baseline_counts_batch`), so one grid pass
  both answers the current query and pre-pays its neighbours;
* event indexes for *kinds* beyond the failure log (currently the
  maintenance log, for Section VII-A.2);
* arbitrary per-system summaries (usage, temperature, the
  inter-arrival and repair-time distribution fits) via
  :meth:`AnalysisCache.summary`.

The report renders its sections one after another, so every cell is
computed once and the hit/miss counters are exact.

Events kinds are tuples so they are hashable and order-stable:

* ``("fail", category, subtype)`` -- a failure-log subset, served by the
  existing :meth:`~repro.records.dataset.FailureTable.events` memo;
* ``("maint", hardware_only)`` -- the period-clipped maintenance stream.
"""

from __future__ import annotations

import weakref
from typing import Callable, Hashable, Iterable, Sequence, TypeVar

import numpy as np

from ..records.dataset import EventIndex, SystemDataset
from ..telemetry import counter_add
from ..records.environment import summarize_temperatures
from ..records.taxonomy import Category, Subtype
from ..records.timeutil import Span
from ..records.usage import (
    node_usage_summaries,
    user_usage_summaries,
)
from .windows import (
    Counts,
    Scope,
    WindowAnalysisError,
    ZERO_COUNTS,
    baseline_counts_batch,
    conditional_counts_batch,
)

T = TypeVar("T")

#: A memoization key for an event stream; see the module docstring.
Kind = tuple


def fail_kind(
    category: Category | None = None, subtype: Subtype | None = None
) -> Kind:
    """The cache kind of a failure-log subset."""
    return ("fail", category, subtype)


def maint_kind(hardware_only: bool = True) -> Kind:
    """The cache kind of the (period-clipped) maintenance stream."""
    return ("maint", bool(hardware_only))


def split_kind(kind: Category | Subtype | None) -> Kind:
    """The failure kind of a Category-or-Subtype-or-None selector."""
    if kind is None or isinstance(kind, Category):
        return fail_kind(category=kind)
    return fail_kind(subtype=kind)


class AnalysisCache:
    """Memoized analysis intermediates of one system.

    Obtain instances through :func:`get_cache`; every analysis sharing
    the same :class:`SystemDataset` object then shares one memo table.
    """

    def __init__(self, ds: SystemDataset) -> None:
        # The dataset holds its cache in its instance dict; a strong
        # reference back would make each dataset a reference cycle that
        # only the cyclic collector frees, so a dropped archive (and its
        # memoized fits) would linger until the next full collection.
        self._ds_ref = weakref.ref(ds)
        self._indices: dict[Kind, EventIndex] = {}
        self._counts: dict[tuple, Counts] = {}
        self._summaries: dict[Hashable, object] = {}
        self.hits = 0
        self.misses = 0

    def _record(self, hits: int = 0, misses: int = 0) -> None:
        """The single bookkeeping point for every cache query.

        Updates the per-instance tallies (served to ``--profile`` via
        :func:`cache_stats`) and mirrors them into the telemetry
        metrics registry.
        """
        if hits:
            self.hits += hits
            counter_add("analysis_cache.hits", hits)
        if misses:
            self.misses += misses
            counter_add("analysis_cache.misses", misses)

    @property
    def _ds(self) -> SystemDataset:
        return self._ds_ref()

    @property
    def entries(self) -> int:
        """Number of memoized values currently held."""
        return len(self._counts) + len(self._summaries) + len(self._indices)

    # -- event streams ------------------------------------------------------

    def events(self, kind: Kind) -> EventIndex:
        """The :class:`EventIndex` behind a cache kind."""
        if kind[0] == "fail":
            # FailureTable.events already memoizes per-subset indexes.
            return self._ds.failure_table.events(kind[1], kind[2])
        if kind[0] == "maint":
            cached = self._indices.get(kind)
            if cached is None:
                cached = self._maintenance_index(kind[1])
                self._indices[kind] = cached
            return cached
        raise KeyError(f"unknown event kind {kind!r}")

    def _maintenance_index(self, hardware_only: bool) -> EventIndex:
        ds = self._ds
        log = ds.maintenance
        keep = (log.times >= ds.period.start) & (log.times < ds.period.end)
        if hardware_only:
            keep &= log.hardware_related
        return EventIndex(log.times[keep], log.node_ids[keep], num_nodes=ds.num_nodes)

    # -- window counts ------------------------------------------------------

    def baseline(
        self,
        kind: Kind,
        span: Span,
        node_subset: np.ndarray | None = None,
        subset_key: Hashable = None,
    ) -> Counts:
        """Memoized baseline counts for one (kind, span) cell.

        ``node_subset`` restricts the trials to a node subset;
        ``subset_key`` must then be a hashable token identifying it
        (e.g. ``("prone", 3)``) so distinct subsets get distinct cells.
        """
        return self.baseline_grid(
            [kind], [span], node_subset=node_subset, subset_key=subset_key
        )[0][0]

    def baseline_grid(
        self,
        kinds: Sequence[Kind],
        spans: Sequence[Span],
        node_subset: np.ndarray | None = None,
        subset_key: Hashable = None,
    ) -> list[list[Counts]]:
        """Memoized ``kinds x spans`` grid of baseline counts."""
        if node_subset is not None and subset_key is None:
            raise ValueError("node_subset requires a subset_key token")
        ds = self._ds
        grid: list[list[Counts]] = []
        missing = [
            kind
            for kind in kinds
            if any(
                ("base", kind, span, subset_key) not in self._counts
                for span in spans
            )
        ]
        if missing:
            fresh = baseline_counts_batch(
                [self.events(kind) for kind in missing],
                ds.num_nodes,
                ds.period,
                spans,
                node_subset=node_subset,
            )
            for kind, row in zip(missing, fresh):
                for span, counts in zip(spans, row):
                    self._counts[("base", kind, span, subset_key)] = counts
        n_missed = sum(1 for kind in kinds if kind in missing) * len(spans)
        self._record(
            hits=len(kinds) * len(spans) - n_missed, misses=n_missed
        )
        for kind in kinds:
            grid.append(
                [self._counts[("base", kind, span, subset_key)] for span in spans]
            )
        return grid

    def conditional(
        self,
        trigger: Kind,
        target: Kind,
        span: Span,
        scope: Scope = Scope.NODE,
    ) -> Counts:
        """Memoized conditional counts for one grid cell."""
        return self.conditional_grid([trigger], [target], [span], scope)[0][0][0]

    def conditional_grid(
        self,
        triggers: Sequence[Kind],
        targets: Sequence[Kind],
        spans: Sequence[Span],
        scope: Scope = Scope.NODE,
    ) -> list[list[list[Counts]]]:
        """Memoized ``triggers x targets x spans`` grid of conditionals.

        Rows (trigger streams) with any missing cell are recomputed as a
        whole via the batched kernel -- the marginal cost of the extra
        cells is small next to re-censoring and re-grouping the trigger
        stream, and they pre-populate the cache for later queries.
        """
        ds = self._ds
        rack_of = ds.rack_of if scope is Scope.RACK else None
        missing = [
            trigger
            for trigger in triggers
            if any(
                ("cond", trigger, target, span, scope) not in self._counts
                for target in targets
                for span in spans
            )
        ]
        if missing:
            fresh = conditional_counts_batch(
                [self.events(trigger) for trigger in missing],
                [self.events(target) for target in targets],
                ds.period,
                spans,
                scope=scope,
                rack_of=rack_of,
                num_nodes=ds.num_nodes,
            )
            for trigger, plane in zip(missing, fresh):
                for target, row in zip(targets, plane):
                    for span, counts in zip(spans, row):
                        key = ("cond", trigger, target, span, scope)
                        self._counts[key] = counts
        cells_per_trigger = len(targets) * len(spans)
        n_missed = (
            sum(1 for trigger in triggers if trigger in missing)
            * cells_per_trigger
        )
        self._record(
            hits=len(triggers) * cells_per_trigger - n_missed, misses=n_missed
        )
        grid: list[list[list[Counts]]] = []
        for trigger in triggers:
            grid.append(
                [
                    [
                        self._counts[("cond", trigger, target, span, scope)]
                        for span in spans
                    ]
                    for target in targets
                ]
            )
        return grid

    # -- cross-section summaries --------------------------------------------

    def summary(self, key: Hashable, compute: Callable[[], T]) -> T:
        """Memoize an arbitrary per-system value under ``key``."""
        try:
            value = self._summaries[key]
            self._record(hits=1)
            return value  # type: ignore[return-value]
        except KeyError:
            self._record(misses=1)
            value = self._summaries[key] = compute()
            return value

    def node_usage(self):
        """Memoized per-node usage summaries (Sections V and X)."""
        ds = self._ds
        return self.summary(
            ("node_usage",),
            lambda: node_usage_summaries(
                ds.job_columns, ds.num_nodes, ds.period
            ),
        )

    def user_usage(self):
        """Memoized per-user usage summaries (Section VI), heaviest first."""
        ds = self._ds
        return self.summary(
            ("user_usage",), lambda: user_usage_summaries(ds.job_columns)
        )

    def temperature_summaries(self):
        """Memoized per-node temperature aggregates (Sections VIII and X)."""
        ds = self._ds
        return self.summary(
            ("temperature_summaries",),
            lambda: summarize_temperatures(
                ds.temperature_columns, ds.num_nodes
            ),
        )


def get_cache(ds: SystemDataset) -> AnalysisCache:
    """The :class:`AnalysisCache` of a dataset, created on first use.

    The cache is stashed in the instance ``__dict__`` (the dataclass is
    frozen but not slotted), so its lifetime is exactly the dataset's
    and two analyses of the same object always share it.
    """
    cache = ds.__dict__.get("_analysis_cache")
    if cache is None:
        cache = AnalysisCache(ds)
        ds.__dict__["_analysis_cache"] = cache
    return cache


def pooled_baseline_grid(
    systems: Sequence[SystemDataset],
    kinds: Sequence[Kind],
    spans: Sequence[Span],
) -> list[list[Counts]]:
    """``kinds x spans`` baseline grid, counts pooled over systems."""
    if not systems:
        raise WindowAnalysisError("need at least one system")
    total = [[ZERO_COUNTS] * len(spans) for _ in kinds]
    for ds in systems:
        grid = get_cache(ds).baseline_grid(kinds, spans)
        for i in range(len(kinds)):
            for k in range(len(spans)):
                total[i][k] = total[i][k] + grid[i][k]
    return total


def pooled_conditional_grid(
    systems: Sequence[SystemDataset],
    triggers: Sequence[Kind],
    targets: Sequence[Kind],
    spans: Sequence[Span],
    scope: Scope = Scope.NODE,
) -> list[list[list[Counts]]]:
    """``triggers x targets x spans`` grid, counts pooled over systems.

    Systems without a layout are skipped for RACK scope (the paper can
    only run the rack analysis on group-1 systems, which have machine
    layout files).
    """
    if not systems:
        raise WindowAnalysisError("need at least one system")
    total = [
        [[ZERO_COUNTS] * len(spans) for _ in targets] for _ in triggers
    ]
    for ds in systems:
        if scope is Scope.RACK and ds.rack_of is None:
            continue
        grid = get_cache(ds).conditional_grid(triggers, targets, spans, scope)
        for i in range(len(triggers)):
            for j in range(len(targets)):
                for k in range(len(spans)):
                    total[i][j][k] = total[i][j][k] + grid[i][j][k]
    return total


def cache_stats(systems: Iterable[SystemDataset]) -> tuple[int, int, int]:
    """Pooled ``(hits, misses, entries)`` over systems' caches."""
    hits = misses = entries = 0
    for ds in systems:
        cache = ds.__dict__.get("_analysis_cache")
        if cache is None:
            continue
        hits += cache.hits
        misses += cache.misses
        entries += cache.entries
    return hits, misses, entries
