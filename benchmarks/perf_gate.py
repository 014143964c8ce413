#!/usr/bin/env python
"""Fail CI when the toolkit gets slower than the committed baseline.

Runs ``perfbench/run.py`` for each of ``RUNS`` and times
``NOOP_ITERATIONS`` disabled span+counter pairs in this process.  Every
run must be correct with no failed operation, and each quantity in
``GUARDED`` must stay within ``FACTOR`` times its value in
``perf_baseline.json`` plus its slack.  A ``stream`` pass always reads
the seed's event count, so its ceiling is also a floor of ``1 / FACTOR``
on events per second.  The gate prints its measurements in the
baseline's shape: to refresh the baseline, commit that output.  Run
from the repository root::

    python benchmarks/perf_gate.py
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Mapping

ROOT = Path(__file__).resolve().parents[1]
BASELINE = Path(__file__).with_name("perf_baseline.json")
SEED = 46
SECONDS = 1
FACTOR = 2.0
#: Seconds added to a limit, so timer jitter cannot fail the build.
SLACK_S = 0.05
NOOP_ITERATIONS = 100_000
#: Gate run -> perfbench workload and ``--trace`` value.
RUNS = {"session": ("session", 0), "stream": ("stream", 0), "stream-traced": ("stream", 1)}
#: Guarded quantity -> (gate run, perfbench metrics summed into it, slack
#: in seconds).  The gate times ``telemetry_noop_s`` itself.
GUARDED = {
    "session_op_s": ("session", ("op_s",), SLACK_S),
    "session_setup_s": ("session", ("setup_s",), SLACK_S),
    "stream_op_s": ("stream", ("op_s",), 0.0),
    "checkpoint_roundtrip_s": (
        "stream-traced",
        ("stream.checkpoint_write_s", "stream.restore_s"),
        SLACK_S,
    ),
    "telemetry_noop_s": (None, (), SLACK_S),
}


def time_telemetry_noop() -> float:
    """Seconds for ``NOOP_ITERATIONS`` disabled span+counter call pairs."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro import telemetry

    with telemetry.disabled():
        t0 = time.perf_counter()
        for i in range(NOOP_ITERATIONS):
            with telemetry.span("bench.noop", iteration=i):
                telemetry.counter_add("bench.noop", 1)
        return time.perf_counter() - t0


def run_perfbench(workload: str, trace: int) -> dict:
    """One perfbench run, echoed to stdout; returns its JSON result line."""
    args = ["perfbench/run.py", f"--workload={workload}", f"--seed={SEED}"]
    args += [f"--seconds={SECONDS}", f"--trace={trace}"]
    print("$ " + " ".join(args), flush=True)
    done = subprocess.run([sys.executable, *args], cwd=ROOT, stdout=subprocess.PIPE, text=True)
    print(done.stdout, end="", flush=True)
    if done.returncode != 0 or not done.stdout:
        raise SystemExit(f"error: perfbench exited with status {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def measurement(results: Mapping[str, dict], noop_s: float) -> dict:
    """The gate's measurements in the baseline's shape; a quantity whose
    perfbench metrics are missing is left out."""
    metrics = {"telemetry_noop_s": noop_s}
    for name, (run, parts, _) in GUARDED.items():
        values = results.get(run, {}).get("metrics", {})
        if run and all(part in values for part in parts):
            metrics[name] = sum(values[part]["value"] for part in parts)
    machine = {"cpu_count": os.cpu_count(), "python": platform.python_version()}
    return {"seed": SEED, "seconds": SECONDS, "machine": machine, "metrics": metrics}


def check(results: Mapping[str, dict], noop_s: float, baseline: dict) -> list[str]:
    """What fails the gate (empty: it passes); ``results`` maps each gate
    run to its perfbench result line."""
    config = (baseline.get("seed"), baseline.get("seconds"))
    if config != (SEED, SECONDS):
        return [f"baseline (seed, seconds) {config} is not {(SEED, SECONDS)}: refresh it"]
    problems = []
    for run in RUNS:
        result = results.get(run, {"correct": False})
        if result.get("correct") is not True:
            problems.append(f"{run}: not correct")
        if result.get("failed", 0) > 0:
            problems.append(f"{run}: {result['failed']} failed operations")
    current = measurement(results, noop_s)["metrics"]
    for name, (_, _, slack) in GUARDED.items():
        base, cur = baseline.get("metrics", {}).get(name), current.get(name)
        if base is None or cur is None:
            problems.append(f"{name}: missing from the {'baseline' if base is None else 'run'}")
        elif cur > FACTOR * base + slack:
            problems.append(
                f"{name}: {cur:.4f} s exceeds {FACTOR * base + slack:.4f} s "
                f"(baseline {base:.4f} s x {FACTOR:g} + {slack:g} s slack)"
            )
    return problems


def main() -> int:
    noop_s = time_telemetry_noop()  # first, while nothing else runs
    results = {run: run_perfbench(*args) for run, args in RUNS.items()}
    print(json.dumps(measurement(results, noop_s), indent=2))
    problems = check(results, noop_s, json.loads(BASELINE.read_text()))
    for problem in problems:
        print(f"PERF REGRESSION: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
