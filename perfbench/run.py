#!/usr/bin/env python3
"""The repository benchmark: ``report``, ``session`` and ``stream``.

Run from the repository root::

    python3 perfbench/run.py --workload report --seed 46 --seconds 8 --trace 0

A run builds its input archive from ``--seed``, runs the workload's
operation in a closed loop with one client for ``--seconds`` seconds,
checks every output outside the timed region, and prints a summary and
then one JSON line.  Times are scaled to a reference host speed
(``hostspeed.py``).  With ``--trace 0`` the line carries the
``end_to_end`` metrics of ``BENCHMARK.json``; ``--trace 1`` makes a
separate traced run that reports its ``per_layer`` metrics
(``layers.py``).  README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from hostspeed import at_reference_speed, timed
from summary import error_rate, result_line, tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("report", "session", "stream")
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Fewest operations in an untraced run, however long they take.
MIN_OPS = 3
#: Fewest pairs of an untraced and a traced operation in a traced run.
MIN_TRACED_PAIRS = 2
#: What one operation and its event rate are called on each workload.
OP_NAMES = {
    "report": ("report_s", "events_per_s"),
    "session": ("session_s", "events_per_s"),
    "stream": ("pass_s", "stream_eps"),
}


@dataclass
class Phase:
    """What a run's operations saw."""

    walls: list[float] = field(default_factory=list)
    #: Host speed probes around the operations (``hostspeed.py``).
    probes: list[float] = field(default_factory=list)
    batch_latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def run(self, workload, around=contextlib.nullcontext) -> float | None:
        """Time one operation inside ``around()``, then check its output.

        Returns the wall time, or ``None`` when the operation raised.  An
        operation that raises or fails a check counts as failed.  The host
        speed probes run outside ``around()``.
        """
        self.attempted += 1

        def operation():
            with around():
                return workload.operation()

        try:
            output, wall = timed(operation, self.probes)
            problems = workload.check(output)
        except Exception:  # counted as a failed operation; the run goes on
            traceback.print_exc()
            self.failed += 1
            return None
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        self.failed += bool(problems)
        self.walls.append(wall)
        self.batch_latencies.extend(workload.batch_latencies(output))
        return wall


def peak_rss_mb() -> float:
    """Peak resident set size of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def print_summary(
    workload, phase: Phase, setup_walls: list[float], values: dict[str, float]
) -> None:
    op_name, rate_name = OP_NAMES[workload.name]
    rate = error_rate(phase.attempted, phase.failed)
    print(
        f"{workload.name} workload, seed {workload.seed}: {phase.attempted} "
        f"operations, {phase.failed} failed, error_rate {rate:g}"
    )
    n = len(phase.walls)
    print("  times at reference host speed; the wall-clock median follows")
    print(
        f"  setup_s      {values['setup_s']:12.4f} s    median of {SETUP_REPEATS} "
        f"set-ups; wall {statistics.median(setup_walls):.4f} s"
    )
    print(
        f"  {op_name:<12s} {values['op_s']:12.4f} s    median of {n} operations "
        f"(op_s); wall {statistics.median(phase.walls):.4f} s"
    )
    events = workload.generated.total_failures()
    print(
        f"  {rate_name:<12s} {events / values['op_s']:12.1f} 1/s  "
        f"{events} failure events over op_s"
    )
    print(f"  peak_rss_mb  {values['peak_rss_mb']:12.1f} MB")
    latencies = phase.batch_latencies
    if latencies:
        p90 = tail_percentile(latencies, 90)
        n = len(latencies)
        print(f"  batch_p50_ms {1e3 * statistics.median(latencies):12.3f} ms   n={n}")
        if p90 is None:
            print(f"  batch_p90_ms needs 100 samples, has {n}")
        else:
            print(f"  batch_p90_ms {1e3 * p90:12.3f} ms   n={n}")
        restore = statistics.median(workload.restore_seconds)
        print(f"  restore_s    {restore:12.4f} s")


def untraced_run(workload, seconds: float) -> tuple[dict[str, float], int, int]:
    """Set up ``SETUP_REPEATS`` times, then measure the end-to-end metrics."""
    setup_walls, setup_probes = [], []
    for i in range(SETUP_REPEATS):
        if i:
            shutil.rmtree(workload.workdir / f"setup-{i - 1}")
        gc.collect()
        slot = workload.workdir / f"setup-{i}"
        _, wall = timed(lambda: workload.setup(slot), setup_probes)
        setup_walls.append(wall)
    workload.prepare()
    phase = Phase()
    deadline = time.perf_counter() + seconds
    while phase.attempted < MIN_OPS or time.perf_counter() < deadline:
        phase.run(workload)
    if not phase.walls:
        raise SystemExit("error: no operation completed")
    values = {
        "setup_s": at_reference_speed(setup_walls, setup_probes),
        "op_s": at_reference_speed(phase.walls, phase.probes),
        "peak_rss_mb": peak_rss_mb(),
    }
    print_summary(workload, phase, setup_walls, values)
    return values, phase.attempted, phase.failed


def traced_run(workload, seconds: float) -> tuple[dict[str, float], int, int]:
    """One traced set-up, then untraced and traced operations by turns.

    The two operations of a pair run back to back, so both see the same
    host speed; ``trace_overhead_ratio`` is the median of the pairs'
    traced over untraced wall times.
    """
    import layers  # wrappers and tracing exist only in the traced run

    setup = layers.OpTracer()
    with setup.op("bench.setup"):
        workload.setup(workload.workdir / "setup-0")
    workload.prepare()
    ops = layers.OpTracer()

    @contextlib.contextmanager
    def traced_op():
        with layers.instrumented(), ops.op():
            yield

    plain, traced = Phase(), Phase()
    ratios = []
    deadline = time.perf_counter() + seconds
    while traced.attempted < MIN_TRACED_PAIRS or time.perf_counter() < deadline:
        plain_wall = plain.run(workload)
        traced_wall = traced.run(workload, around=traced_op)
        if plain_wall and traced_wall:
            ratios.append(traced_wall / plain_wall)
    if not ratios:
        raise SystemExit("error: no pair of untraced and traced operations completed")
    values, table = layers.attribute(
        setup, ops, ratios, plain.batch_latencies, workload.restore_seconds
    )
    out = HERE / "out" / f"{workload.name}-seed{workload.seed}"
    layers.write_artifacts(out, table, setup, ops)
    print(table)
    print(f"wrote {out / 'layers.txt'} and {out / 'spans.jsonl'}")
    return (
        values,
        plain.attempted + traced.attempted,
        plain.failed + traced.failed,
    )


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for one metric list of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument(
        "--seed", type=int, default=46, help="archive seed (default 46)"
    )
    parser.add_argument(
        "--seconds", type=float, default=8.0, help="measuring time (default 8)"
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=0,
        help="1: a traced run reporting the per-layer metrics",
    )
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is missing: {src / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads  # needs the program on the path

    units = declared_units("per_layer" if args.trace else "end_to_end")
    workdir = HERE / "out" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    run = traced_run if args.trace else untraced_run
    try:
        values, attempted, failed = run(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(result_line(failed == 0, attempted, failed, values, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
