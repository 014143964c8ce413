"""Archive replay and the replay-vs-batch equivalence proof.

:func:`replay_archive` feeds a generated archive through a stream
consumer in micro-batches (optionally paced to wall time with a
time-acceleration factor), and :func:`verify_equivalence` proves the
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

from ..core.windows import (
    Scope,
    baseline_counts_batch,
    conditional_counts_batch,
)
from ..records.dataset import Archive, SystemDataset
from ..telemetry import span as tel_span
from .analysis import OnlineAnalysis
from .events import StreamEvent
from .ingest import archive_source
from .state import BatchStats, StreamAnalysisConfig, StreamAnalysisState


class Pacer:
    """Maps event-time gaps to wall-clock sleeps for accelerated replay.

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
        self._origin_wall: float | None = None
        self._origin_event: float | None = None

    def pace(self, event_time: float) -> None:
        """Sleep until ``event_time`` is due on the accelerated clock."""
        now = time.monotonic()  # repro: noqa DET002 - replay pacing only
        if self._origin_wall is None or self._origin_event is None:
            self._origin_wall = now
            self._origin_event = event_time
            return
        due = self._origin_wall + (event_time - self._origin_event) / self.speed
        if due > now:
            time.sleep(due - now)

    def paced(self, source: Iterable[StreamEvent]) -> Iterator[StreamEvent]:
        """Wrap a source so events are yielded on the accelerated clock."""
        for event in source:
            self.pace(event.time)
            yield event


@dataclass
class ReplayResult:
    """Outcome of one replay run."""

    stats: BatchStats
    batches: int


def replay_archive(
    archive: Archive,
    consumer: OnlineAnalysis,
    batch_size: int = 256,
    speed: float | None = None,
    max_events: int | None = None,
    finalize: bool = True,
) -> ReplayResult:
    """Drive an archive's failure log through a stream consumer.

    Synchronous (no queue thread): events arrive in timestamp order in
    micro-batches of ``batch_size``, exactly as the bounded-queue
    pipeline would deliver them from an in-order source.
    ``max_events`` truncates the replay (simulating a mid-stream kill);
    ``finalize=False`` leaves pending windows unresolved so the run can
    be checkpointed and resumed.
    """
    consumer.state.register_archive(archive)
    source: Iterable[StreamEvent] = archive_source(archive)
    if speed is not None:
        source = Pacer(speed).paced(source)
    totals = BatchStats()
    batches = 0
    batch: list[StreamEvent] = []
    delivered = 0
    with tel_span("stream.replay", batch_size=batch_size):
        for event in source:
            if max_events is not None and delivered >= max_events:
                break
            batch.append(event)
            delivered += 1
            if len(batch) >= batch_size:
                totals.merge(consumer.process_batch(batch))
                batches += 1
                batch = []
        if batch:
            totals.merge(consumer.process_batch(batch))
            batches += 1
        if finalize:
            consumer.finalize()
    return ReplayResult(stats=totals, batches=batches)


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


def _verify_system(
    ds: SystemDataset,
    state: StreamAnalysisState,
) -> tuple[int, list[str]]:
    """Compare one system's streaming grids to fresh batch grids.

    Returns ``(cells_compared, mismatch_descriptions)``.
    """
    cells = 0
    mismatches: list[str] = []
    config = state.config
    system = state.systems[ds.system_id]
    table = ds.failure_table
    triggers = [table.events(category=c) for c in config.selections]
    targets = [table.events(category=c) for c in config.selections]
    wide_targets = [table.events(category=c) for c in config.wide_targets]
    spans = list(config.spans)

    def label(selection) -> str:
        return "any" if selection is None else selection.value

    def compare_grid(scope: Scope, batch_grid, stream_grid, target_sels):
        nonlocal cells
        for i, trigger_sel in enumerate(config.selections):
            for j, target_sel in enumerate(target_sels):
                for k, span in enumerate(spans):
                    cells = cells + 1
                    expected = batch_grid[i][j][k]
                    got = stream_grid[i][j][k]
                    if expected != got:
                        mismatches.append(
                            f"system {ds.system_id} {scope.value} "
                            f"{label(trigger_sel)}->{label(target_sel)} "
                            f"@{span.value}: batch {expected.successes}/"
                            f"{expected.trials} != stream "
                            f"{got.successes}/{got.trials}"
                        )

    compare_grid(
        Scope.NODE,
        conditional_counts_batch(
            triggers, targets, ds.period, spans, num_nodes=ds.num_nodes
        ),
        system.conditional_grid(Scope.NODE),
        config.selections,
    )
    compare_grid(
        Scope.SYSTEM,
        conditional_counts_batch(
            triggers,
            wide_targets,
            ds.period,
            spans,
            scope=Scope.SYSTEM,
            num_nodes=ds.num_nodes,
        ),
        system.conditional_grid(Scope.SYSTEM),
        config.wide_targets,
    )
    if ds.rack_of is not None:
        compare_grid(
            Scope.RACK,
            conditional_counts_batch(
                triggers,
                wide_targets,
                ds.period,
                spans,
                scope=Scope.RACK,
                rack_of=ds.rack_of,
                num_nodes=ds.num_nodes,
            ),
            system.conditional_grid(Scope.RACK),
            config.wide_targets,
        )
    baseline_batch = baseline_counts_batch(
        targets, ds.num_nodes, ds.period, spans
    )
    baseline_stream = system.baseline_grid()
    for j, target_sel in enumerate(config.selections):
        for k, span in enumerate(spans):
            cells = cells + 1
            expected = baseline_batch[j][k]
            got = baseline_stream[j][k]
            if expected != got:
                mismatches.append(
                    f"system {ds.system_id} baseline {label(target_sel)} "
                    f"@{span.value}: batch {expected.successes}/"
                    f"{expected.trials} != stream {got.successes}/"
                    f"{got.trials}"
                )
    return cells, mismatches


def verify_equivalence(
    archive: Archive, state: StreamAnalysisState
) -> EquivalenceReport:
    """Prove streaming counts equal the batch kernels on this archive.

    The state must have fully consumed the archive (replay complete and
    finalized); every tracked grid cell is then compared for exact
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


def replay_and_verify(
    archive: Archive,
    config: StreamAnalysisConfig | None = None,
    batch_size: int = 256,
) -> tuple[OnlineAnalysis, EquivalenceReport]:
    """Convenience: replay a full archive, then verify equivalence."""
    consumer = OnlineAnalysis(StreamAnalysisState(config))
    replay_archive(archive, consumer, batch_size=batch_size)
    return consumer, verify_equivalence(archive, consumer.state)
