"""Command-line front end for :mod:`repro.stream`.

Reached as ``repro stream ...`` (a subcommand of the main CLI).  One
invocation runs one ingest pipeline: pick a source (``archive`` replay,
``tail`` a JSONL log, or a ``live`` synthetic feed), optionally resume
from the latest checkpoint in ``--checkpoint-dir``, and stream events
through the online analysis.  ``--verify`` proves the replay-vs-batch
equivalence at the end; ``--alerts`` evaluates the default alert rules
per micro-batch.  Exit codes: 0 = clean run, 1 = verification failure,
2 = usage error (argparse's convention).
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from ..cli import load_archive_or_exit
from ..records.timeutil import ObservationPeriod
from .alerts import AlertEngine, render_alerts
from .analysis import OnlineAnalysis
from .ingest import (
    BackpressurePolicy,
    IngestPipeline,
    archive_source,
    jsonl_source,
    synthetic_source,
)
from .replay import Pacer, verify_equivalence
from .state import (
    Checkpointer,
    StreamAnalysisState,
    StreamStateError,
    latest_checkpoint_sequence,
    load_checkpoint,
)


def add_stream_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the ``stream`` arguments on ``parser``."""
    parser.add_argument(
        "--source",
        choices=("archive", "tail", "live"),
        default="archive",
        help=(
            "event source: replay a generated archive, tail a JSONL log, "
            "or a synthetic live feed (default: archive)"
        ),
    )
    parser.add_argument(
        "--archive",
        type=Path,
        default=None,
        metavar="DIR",
        help=(
            "archive directory: the event source for --source archive, and "
            "the system registry (layouts, observation periods) for "
            "--source tail"
        ),
    )
    parser.add_argument(
        "--input",
        type=Path,
        default=None,
        metavar="FILE",
        help="JSONL event log to read (required for --source tail)",
    )
    parser.add_argument(
        "--follow",
        action="store_true",
        help="with --source tail, keep polling for appended lines",
    )
    parser.add_argument(
        "--lateness",
        type=float,
        default=0.0,
        metavar="DAYS",
        help=(
            "out-of-order tolerance: events up to DAYS behind the newest "
            "seen event are still accepted (default 0)"
        ),
    )
    parser.add_argument(
        "--checkpoint-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="write versioned checkpoints to DIR",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="N",
        help=(
            "checkpoint after every N accepted events (default 0: only at "
            "end of stream)"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="restore state from the latest checkpoint in --checkpoint-dir",
    )
    parser.add_argument(
        "--alerts",
        action="store_true",
        help="evaluate the default alert rules and print fired alerts",
    )
    parser.add_argument(
        "--risk-threshold",
        type=float,
        default=0.5,
        help="node-risk alert threshold in (0, 1) (default 0.5)",
    )
    parser.add_argument(
        "--burst-threshold",
        type=int,
        default=10,
        help="events per trailing day that trigger a burst alert (default 10)",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help=(
            "after a full archive replay, prove the streaming grids equal "
            "the batch analysis exactly (requires --archive; exit 1 on "
            "mismatch)"
        ),
    )
    parser.add_argument(
        "--speed",
        type=float,
        default=None,
        metavar="DAYS_PER_S",
        help=(
            "pace the stream to wall time at DAYS_PER_S simulated days per "
            "second (default: as fast as possible)"
        ),
    )
    parser.add_argument(
        "--max-events",
        type=int,
        default=None,
        metavar="N",
        help=(
            "stop after N delivered events without finalizing (simulates a "
            "mid-stream shutdown; combine with --checkpoint-dir to resume)"
        ),
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=256,
        help="micro-batch size (default 256)",
    )
    parser.add_argument(
        "--capacity",
        type=int,
        default=1024,
        help=(
            "buffer capacity: the largest due backlog of a paced (--speed) "
            "or followed (--follow) source that drop-oldest and reject "
            "keep (default 1024)"
        ),
    )
    parser.add_argument(
        "--policy",
        choices=[policy.value for policy in BackpressurePolicy],
        default=BackpressurePolicy.BLOCK.value,
        help=(
            "for a due backlog over --capacity: block keeps it whole, "
            "drop-oldest keeps the newest events, reject the oldest "
            "(default block)"
        ),
    )
    parser.add_argument(
        "--live-nodes",
        type=int,
        default=64,
        help="with --source live, nodes in the synthetic system (default 64)",
    )
    parser.add_argument(
        "--live-days",
        type=float,
        default=365.0,
        help="with --source live, days of feed to generate (default 365)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="with --source live, feed RNG seed (default: project seed)",
    )
    parser.add_argument(
        "--risk-top",
        type=int,
        default=5,
        metavar="K",
        help="print the top K at-risk nodes at the end (default 5, 0 = off)",
    )


def _build_state(args: argparse.Namespace) -> StreamAnalysisState:
    if not args.resume:
        try:
            return StreamAnalysisState(args.lateness)
        except StreamStateError as exc:
            raise SystemExit(f"error: {exc}")
    if args.checkpoint_dir is None:
        raise SystemExit("error: --resume requires --checkpoint-dir")
    sequence = latest_checkpoint_sequence(args.checkpoint_dir)
    if sequence is None:
        raise SystemExit(
            f"error: no checkpoint found in {args.checkpoint_dir}"
        )
    try:
        state = load_checkpoint(args.checkpoint_dir, args.lateness)
    except StreamStateError as exc:
        raise SystemExit(f"error: cannot restore checkpoint: {exc}")
    print(
        f"resumed from checkpoint {sequence} in {args.checkpoint_dir} "
        f"({len(state.systems)} systems)"
    )
    return state


def _build_source(args: argparse.Namespace, state: StreamAnalysisState):
    """Returns ``(source_iterator, archive_or_None)``."""
    archive = None
    if args.archive is not None:
        archive = load_archive_or_exit(args.archive)
        state.register_archive(archive)
    if args.source == "archive":
        if archive is None:
            raise SystemExit("error: --source archive requires --archive")
        return archive_source(archive), archive
    if args.source == "tail":
        if args.input is None:
            raise SystemExit("error: --source tail requires --input")
        if not state.systems:
            raise SystemExit(
                "error: --source tail needs a system registry; pass "
                "--archive or --resume"
            )
        if not args.input.exists():
            raise SystemExit(f"error: input file {args.input} does not exist")
        return jsonl_source(args.input, follow=args.follow), archive
    source = synthetic_source(
        num_nodes=args.live_nodes, days=args.live_days, seed=args.seed
    )
    if 0 not in state.systems:
        state.register_system(
            0, args.live_nodes, ObservationPeriod(0.0, args.live_days), None
        )
    return source, archive


def _print_summary(
    args: argparse.Namespace,
    consumer: OnlineAnalysis,
    pipeline: IngestPipeline,
    elapsed_s: float,
) -> None:
    totals = consumer.totals
    rate = totals.accepted / elapsed_s if elapsed_s > 0 else 0.0
    print(
        f"processed {totals.total()} events in {consumer.batches} batches "
        f"({rate:,.0f} accepted/s):\n"
        f"  accepted {totals.accepted}  late {totals.late}  "
        f"duplicate {totals.duplicate}  invalid {totals.invalid}  "
        f"ignored {totals.ignored}  unknown-system {totals.unknown_system}"
    )
    queue = pipeline.queue
    if queue.dropped_oldest or queue.rejected:
        print(
            f"  queue: dropped-oldest {queue.dropped_oldest}  "
            f"rejected {queue.rejected}"
        )
    if args.alerts:
        print(f"alerts fired: {len(consumer.alerts)}")
        shown = consumer.alerts[:20]
        if shown:
            print(render_alerts(shown))
        if len(consumer.alerts) > len(shown):
            print(f"  ... and {len(consumer.alerts) - len(shown)} more")
    if args.risk_top > 0:
        ranked = sorted(
            (
                risk
                for risks in consumer.latest_risks.values()
                for risk in risks
            ),
            key=lambda r: (-r.score, r.system_id, r.node_id),
        )[: args.risk_top]
        if ranked:
            print("top at-risk nodes:")
            for risk in ranked:
                print(
                    f"  system {risk.system_id:>3d} node {risk.node_id:>4d}  "
                    f"risk {risk.score:.3f}  ({risk.recent_own} recent own)"
                )
    print(f"state digest: {consumer.state.digest()}")


def run_stream_command(args: argparse.Namespace) -> int:
    """Run one ingest pipeline; returns a process exit code."""
    if args.verify and args.archive is None:
        raise SystemExit("error: --verify requires --archive")
    if args.verify and args.max_events is not None:
        raise SystemExit(
            "error: --verify needs a full replay; drop --max-events"
        )
    state = _build_state(args)
    source, archive = _build_source(args, state)
    if args.speed is not None:
        source = Pacer(args.speed).paced(source)
    checkpointer = None
    if args.checkpoint_dir is not None:
        checkpointer = Checkpointer(
            args.checkpoint_dir, every=args.checkpoint_every
        )
    alert_engine = None
    if args.alerts:
        alert_engine = AlertEngine.default(
            risk_threshold=args.risk_threshold,
            burst_threshold=args.burst_threshold,
        )
    consumer = OnlineAnalysis(
        state, alert_engine=alert_engine, checkpointer=checkpointer
    )
    pipeline = IngestPipeline(
        source,
        consumer,
        capacity=args.capacity,
        policy=BackpressurePolicy(args.policy),
        batch_size=args.batch_size,
        max_events=args.max_events,
    )
    started = time.perf_counter()  # repro: noqa DET002 - throughput metric
    pipeline.run()
    interrupted = (
        args.max_events is not None
        and consumer.totals.total() >= args.max_events
    )
    if not interrupted:
        consumer.finalize()
    elapsed = time.perf_counter() - started  # repro: noqa DET002
    if checkpointer is not None:
        info = checkpointer.write(state)
        print(
            f"checkpoint {info.sequence} written to {info.directory} "
            f"({info.bytes} bytes)"
        )
    if interrupted:
        print(
            f"stopped after {consumer.totals.total()} events "
            "(--max-events); state not finalized"
        )
    _print_summary(args, consumer, pipeline, elapsed)
    if args.verify:
        report = verify_equivalence(archive, state)
        print(report.render())
        if not report.ok:
            return 1
    return 0
