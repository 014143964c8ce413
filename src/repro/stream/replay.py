"""Archive replay and the replay-vs-batch equivalence proof.

:func:`replay_archive` feeds a generated archive through a stream
consumer in micro-batches, :class:`Pacer` releases any source's events
on an accelerated wall clock, and :func:`verify_equivalence` proves the
central correctness property of the streaming subsystem: after a full
replay, every streaming conditional/baseline count grid equals the
batch :func:`repro.core.windows.conditional_counts_batch` /
:func:`repro.core.windows.baseline_counts_batch` result **exactly** --
cell-for-cell integer equality at every scope, not a tolerance check.
Both sides decide window membership with the same gather kernel, so
the proof checks the incremental bookkeeping: watermarks, censoring,
resolution pointers and micro-batching.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from ..core.windows import (
    Scope,
    baseline_counts_batch,
    conditional_counts_batch,
)
from ..records.dataset import Archive, SystemDataset
from ..telemetry import span as tel_span
from .analysis import OnlineAnalysis
from .events import StreamEvent
from .ingest import ClockedSource, IngestPipeline, archive_source
from .state import SELECTIONS, SPANS, BatchStats, StreamAnalysisState


class Pacer:
    """Releases a source's events on an accelerated wall clock.

    ``speed`` is the acceleration factor in simulated days per wall
    second: ``speed=30`` plays one simulated month per second.  Pacing
    is an intentional wall-clock dependency of the *live replay path
    only* -- it never influences any analysis result, which depend
    exclusively on event timestamps.
    """

    def __init__(self, speed: float) -> None:
        if speed <= 0:
            raise ValueError(f"speed must be positive, got {speed}")
        self.speed = speed

    def paced(self, source: Iterable[StreamEvent]) -> ClockedSource:
        """Wrap a source so each turn hands over every event now due.

        A clocked source's own turns are paced one by one, so a followed
        log is not polled while events it already handed over are due.
        """
        arrivals = (
            source.turns if isinstance(source, ClockedSource) else (source,)
        )
        return ClockedSource(self._due_turns(arrivals))

    def _due_turns(
        self, arrivals: Iterable[Iterable[StreamEvent]]
    ) -> Iterator[list[StreamEvent]]:
        origin: tuple[float, float] | None = None  # (wall, event time)

        def due(event: StreamEvent) -> float:
            wall, start = origin
            return wall + (event.time - start) / self.speed

        for arrived in arrivals:
            events = iter(arrived)
            pending = next(events, None)
            if origin is None and pending is not None:
                # The first event is due at once; it anchors both clocks.
                origin = (time.monotonic(), pending.time)  # repro: noqa DET002
            while pending is not None:
                now = time.monotonic()  # repro: noqa DET002 - pacing only
                if due(pending) > now:
                    # Sleep only when nothing is due.
                    time.sleep(due(pending) - now)
                    now = max(time.monotonic(), due(pending))  # repro: noqa DET002
                turn = []
                while pending is not None and due(pending) <= now:
                    turn.append(pending)
                    pending = next(events, None)
                yield turn


@dataclass
class ReplayResult:
    """Outcome of one replay run."""

    stats: BatchStats
    batches: int


def replay_archive(
    archive: Archive,
    consumer: OnlineAnalysis,
    batch_size: int = 256,
    max_events: int | None = None,
    finalize: bool = True,
) -> ReplayResult:
    """Drive an archive's failure log through a stream consumer.

    One :class:`IngestPipeline` run over :func:`archive_source` whose
    buffer holds one micro-batch: events arrive in timestamp order in
    micro-batches of exactly ``batch_size``.  ``max_events`` truncates
    the replay (simulating a mid-stream kill); ``finalize=False`` leaves
    pending windows unresolved so the run can be checkpointed and
    resumed.
    """
    consumer.state.register_archive(archive)
    batches_before = consumer.batches
    with tel_span("stream.replay", batch_size=batch_size):
        stats = IngestPipeline(
            archive_source(archive),
            consumer,
            capacity=batch_size,
            batch_size=batch_size,
            max_events=max_events,
        ).run()
        if finalize:
            consumer.finalize()
    return ReplayResult(stats=stats, batches=consumer.batches - batches_before)


@dataclass
class EquivalenceReport:
    """Result of the replay-vs-batch comparison.

    Attributes:
        cells: grid cells compared (every (system, scope, trigger,
            target, span) conditional cell plus baseline cells).
        mismatches: human-readable descriptions of unequal cells
            (empty when the equivalence holds).
    """

    cells: int = 0
    mismatches: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def render(self) -> str:
        if self.ok:
            return (
                f"replay-vs-batch equivalence holds over {self.cells} grid "
                "cells"
            )
        head = "\n".join(self.mismatches[:20])
        return (
            f"replay-vs-batch equivalence FAILED: "
            f"{len(self.mismatches)}/{self.cells} cells differ\n{head}"
        )


def _differences(batch, stream: np.ndarray, where) -> list[str]:
    """One line per cell where a batch grid of :class:`Counts` and a
    stream ``[..., (successes, trials)]`` array of the same layout
    differ; ``where(*cell)`` names the cell."""
    counts = np.array(batch, dtype=object).ravel()
    expected = np.array(
        [(c.successes, c.trials) for c in counts], dtype=np.int64
    ).reshape(stream.shape)
    lines = []
    for cell in np.argwhere((expected != stream).any(axis=-1)).tolist():
        want, got = expected[tuple(cell)].tolist(), stream[tuple(cell)].tolist()
        lines.append(
            f"{where(*cell)}: batch {want[0]}/{want[1]} != stream "
            f"{got[0]}/{got[1]}"
        )
    return lines


def _verify_system(
    ds: SystemDataset,
    state: StreamAnalysisState,
) -> tuple[int, list[str]]:
    """Compare one system's streaming grids to fresh batch grids.

    Returns ``(cells_compared, mismatch_descriptions)``.
    """
    system = state.systems[ds.system_id]
    table = ds.failure_table
    selections = [table.events(category=c) for c in SELECTIONS]
    spans = list(SPANS)
    names = ["any" if s is None else s.value for s in SELECTIONS]
    # The wide grids' one target is any failure.
    grids = [
        (Scope.NODE, selections, {}),
        (Scope.SYSTEM, selections[:1], {"scope": Scope.SYSTEM}),
    ]
    if ds.rack_of is not None:
        grids.append(
            (Scope.RACK, selections[:1], {"scope": Scope.RACK, "rack_of": ds.rack_of})
        )
    cells = 0
    mismatches: list[str] = []
    for scope, targets, options in grids:
        stream = system.conditional_cells(scope)
        batch = conditional_counts_batch(
            selections, targets, ds.period, spans, num_nodes=ds.num_nodes, **options
        )
        cells += stream.size // 2
        mismatches += _differences(
            batch,
            stream,
            lambda i, j, k, scope=scope: (
                f"system {ds.system_id} {scope.value} {names[i]}->{names[j]} "
                f"@{spans[k].value}"
            ),
        )
    stream = system.baseline_cells()
    cells += stream.size // 2
    mismatches += _differences(
        baseline_counts_batch(selections, ds.num_nodes, ds.period, spans),
        stream,
        lambda j, k: f"system {ds.system_id} baseline {names[j]} @{spans[k].value}",
    )
    return cells, mismatches


def verify_equivalence(
    archive: Archive, state: StreamAnalysisState
) -> EquivalenceReport:
    """Prove streaming counts equal the batch kernels on this archive.

    The state must have fully consumed the archive (replay complete and
    finalized); every grid cell is then compared for exact
    integer equality against freshly-computed batch grids.
    """
    cells = 0
    mismatches: list[str] = []
    with tel_span("stream.verify"):
        for ds in archive:
            if ds.system_id not in state.systems:
                mismatches.append(
                    f"system {ds.system_id} missing from streaming state"
                )
                continue
            system_cells, system_mismatches = _verify_system(ds, state)
            cells += system_cells
            mismatches.extend(system_mismatches)
    return EquivalenceReport(cells=cells, mismatches=mismatches)

