#!/usr/bin/env python3
"""Record the known-good digests the benchmark checks its outputs against.

Run from the repository root, on a commit whose outputs are trusted::

    python3 perfbench/record_digests.py 0-63 97

For each seed it sets up the ``stream`` workload as the benchmark does,
runs one pass and checks it the benchmark's way (including
``verify_equivalence``, which compares the stream state with the batch
window kernels), renders the report of the loaded archive, and writes
the sha256 of the report text and of the stream state into
``digests.json``.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  needs the program on the path
from repro.core.report import full_report  # noqa: E402


def parse_seeds(args: list[str]) -> list[int]:
    """Seeds from arguments such as ``7`` and ``0-63``."""
    seeds = []
    for arg in args:
        first, _, last = arg.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def digests(seed: int) -> tuple[str, str]:
    """The report and stream-state sha256 of one seed's archive."""
    workdir = HERE / "out" / f"digests-{seed}"
    try:
        stream = workloads.StreamWorkload(seed, workdir)
        stream.setup(workdir / "setup")
        stream.prepare()
        output = stream.operation()
        problems = stream.check(output)
        report = full_report(stream.archive)
        if report != full_report(stream.generated):
            problems.append("the loaded archive's report differs from the generated one's")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if problems:
        raise SystemExit(f"seed {seed}: " + "; ".join(problems))
    return hashlib.sha256(report.encode()).hexdigest(), output.consumer.state.digest()


def main(argv: list[str]) -> int:
    seeds = parse_seeds(argv)
    if not seeds:
        print(__doc__, file=sys.stderr)
        return 2
    recorded = json.loads(workloads.DIGESTS.read_text())
    for seed in seeds:
        report, state = digests(seed)
        print(f"seed {seed}: report {report[:12]} stream {state[:12]}", flush=True)
        for kind, digest in (("report_sha256", report), ("stream_state_sha256", state)):
            recorded[kind][str(seed)] = digest
            recorded[kind] = dict(
                sorted(recorded[kind].items(), key=lambda item: int(item[0]))
            )
        workloads.DIGESTS.write_text(json.dumps(recorded, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
