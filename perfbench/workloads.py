"""The benchmark's workloads: set-up, one timed operation, output checks.

Every workload runs on the archive ``small_config(seed, years=7,
scale=0.35)`` (about 16k failures, 104k jobs and 229k temperature
readings) and shares two set-up steps: generate it through the archive
cache into a fresh cache directory, the cold ``repro generate`` path,
then save it as CSV.  The program is a black box reached through public
functions only.

``render_all_figures`` and ``evaluate_risk_model`` are imported by name
because the traced run wraps them at this call site (``layers.py``).
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from repro.core.report import full_report
from repro.prediction.evaluation import RiskEvaluation, evaluate_risk_model
from repro.prediction.risk import RiskModel
from repro.records.io import load_archive, save_archive
from repro.simulate.cache import cached_make_archive, load_cached
from repro.simulate.config import small_config
from repro.stream import (
    AlertEngine,
    BackpressurePolicy,
    BoundedQueue,
    Checkpointer,
    IngestPipeline,
    OnlineAnalysis,
    StreamAnalysisState,
    archive_source,
    load_checkpoint,
    verify_equivalence,
)
from repro.viz import render_all_figures

YEARS = 7.0
SCALE = 0.35
#: sha256 digests of known-good outputs, per seed (``record_digests.py``).
DIGESTS = Path(__file__).with_name("digests.json")
# The stream workload's pipeline settings.
QUEUE_CAPACITY = 1024
BATCH_SIZE = 128
CHECKPOINT_EVERY = 4096


def recorded_digest(kind: str, seed: int) -> str | None:
    """The digest recorded for ``seed``, or ``None`` if there is none.

    Any seed is a valid input, so a seed without a recorded digest is
    not a failure; it is reported, because its outputs are then only
    checked against each other.
    """
    digest = json.loads(DIGESTS.read_text())[kind].get(str(seed))
    if digest is None:
        print(
            f"warning: digests.json has no {kind} for seed {seed}; "
            "that check is skipped",
            file=sys.stderr,
        )
    return digest


def report_problems(
    text: str, expected: str, recorded: str | None
) -> list[str]:
    """What is wrong with one report text."""
    problems = []
    if text != expected:
        problems.append("report text differs from the generated archive's")
    digest = hashlib.sha256(text.encode()).hexdigest()
    if recorded is not None and digest != recorded:
        problems.append(f"report sha256 {digest} is not the recorded {recorded}")
    return problems


class Workload:
    """A closed-loop, single-client workload.

    ``setup`` is timed as set-up.  ``prepare`` runs once, untimed, before
    the first operation.  ``operation`` is the timed unit of work, and
    ``check`` lists what is wrong with its output, outside the timing.
    """

    name = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.config = small_config(seed=seed, years=YEARS, scale=SCALE)
        self.workdir = workdir
        self.restore_seconds: list[float] = []

    def setup(self, slot: Path) -> None:
        """The two common set-up steps, into the directory ``slot``."""
        self.cache_dir = slot / "cache"
        self.generated = cached_make_archive(
            self.config, directory=self.cache_dir
        )
        self.archive_dir = slot / "archive"
        save_archive(self.generated, self.archive_dir)

    def prepare(self) -> None:
        """The reference every report text must equal."""
        self.expected = full_report(self.generated)
        self.recorded = recorded_digest("report_sha256", self.seed)

    def operation(self):
        raise NotImplementedError

    def check(self, output) -> list[str]:
        raise NotImplementedError

    def batch_latencies(self, output) -> list[float]:
        """Seconds per consumer batch of one operation, if it has batches."""
        return []


class ReportWorkload(Workload):
    """``repro report DIR``: load the CSV archive, then a serial report.

    Every operation loads a fresh archive, so the analysis cache starts
    empty.
    """

    name = "report"

    def operation(self) -> str:
        return full_report(load_archive(self.archive_dir))

    def check(self, output: str) -> list[str]:
        return report_problems(output, self.expected, self.recorded)


@dataclass(frozen=True)
class SessionPass:
    report: str
    figures: str
    evaluation: RiskEvaluation
    model: RiskModel


class SessionWorkload(Workload):
    """An analyst's hot pass over one archive instance.

    Set-up loads the archive from the archive cache; ``prepare`` runs a
    warm-up pass, so every window lookup of a timed pass is an analysis
    cache hit.
    """

    name = "session"

    def setup(self, slot: Path) -> None:
        super().setup(slot)
        self.archive = load_cached(self.config, self.cache_dir)
        if self.archive is None:
            raise RuntimeError(f"archive cache missed in {self.cache_dir}")

    def prepare(self) -> None:
        super().prepare()
        self.warm = self.operation()

    def operation(self) -> SessionPass:
        systems = list(self.archive)
        return SessionPass(
            report=full_report(self.archive),
            figures=render_all_figures(self.archive),
            evaluation=evaluate_risk_model(systems),
            model=RiskModel.fit(systems),
        )

    def check(self, output: SessionPass) -> list[str]:
        problems = report_problems(output.report, self.expected, self.recorded)
        for name in ("figures", "evaluation", "model"):
            if getattr(output, name) != getattr(self.warm, name):
                problems.append(f"{name} differ from the warm-up pass")
        return problems


class BatchTimer:
    """Consumer proxy timing ``process_batch``: from handing the batch
    over until its risks, alerts and checkpoint are done."""

    def __init__(self, consumer: OnlineAnalysis) -> None:
        self.consumer = consumer
        self.latencies: list[float] = []

    def process_batch(self, events):
        started = time.perf_counter()
        stats = self.consumer.process_batch(events)
        self.latencies.append(time.perf_counter() - started)
        return stats


@dataclass(frozen=True)
class StreamPass:
    consumer: OnlineAnalysis
    queue: BoundedQueue
    latencies: list[float]


class StreamWorkload(Workload):
    """``repro stream --source archive`` with alerts and checkpoints."""

    name = "stream"

    def setup(self, slot: Path) -> None:
        super().setup(slot)
        self.archive = load_archive(self.archive_dir)

    def prepare(self) -> None:
        self.recorded = recorded_digest("stream_state_sha256", self.seed)
        self.first_digest: str | None = None
        self.passes = 0

    def operation(self) -> StreamPass:
        self.passes += 1
        state = StreamAnalysisState()
        state.register_archive(self.archive)
        consumer = OnlineAnalysis(
            state,
            alert_engine=AlertEngine.default(),
            checkpointer=Checkpointer(
                self.workdir / f"checkpoints-{self.passes}",
                every=CHECKPOINT_EVERY,
            ),
        )
        timer = BatchTimer(consumer)
        pipeline = IngestPipeline(
            archive_source(self.archive),
            timer,
            capacity=QUEUE_CAPACITY,
            policy=BackpressurePolicy.BLOCK,
            batch_size=BATCH_SIZE,
        )
        pipeline.run()
        consumer.finalize()
        return StreamPass(consumer, pipeline.queue, timer.latencies)

    def batch_latencies(self, output: StreamPass) -> list[float]:
        return output.latencies

    def check(self, output: StreamPass) -> list[str]:
        problems = []
        queue = output.queue
        if queue.dropped_oldest or queue.rejected:
            problems.append(
                f"queue dropped {queue.dropped_oldest} and rejected "
                f"{queue.rejected} events"
            )
        accepted = output.consumer.totals.accepted
        expected_events = self.archive.total_failures()
        if accepted != expected_events:
            problems.append(f"accepted {accepted} of {expected_events} events")
        state = output.consumer.state
        digest = state.digest()
        if self.recorded is not None and digest != self.recorded:
            problems.append(
                f"state digest {digest} is not the recorded {self.recorded}"
            )
        if self.first_digest is None:
            self.first_digest = digest
            problems.extend(
                verify_equivalence(self.archive, state).mismatches[:5]
            )
        elif digest != self.first_digest:
            problems.append("state digest differs from the first pass's")
        # ``repro stream`` writes a last checkpoint after finalize; it
        # must restore to the same state.
        checkpointer = output.consumer.checkpointer
        checkpointer.write(state)
        started = time.perf_counter()
        restored = load_checkpoint(checkpointer.directory)
        self.restore_seconds.append(time.perf_counter() - started)
        if restored.digest() != digest:
            problems.append("restored checkpoint differs from the final state")
        shutil.rmtree(checkpointer.directory)
        return problems


WORKLOADS = {
    workload.name: workload
    for workload in (ReportWorkload, SessionWorkload, StreamWorkload)
}
