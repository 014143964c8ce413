"""Quickstart: generate a LANL-like archive and run the paper's analyses.

Run:
    python examples/quickstart.py [seed]

Generates a scaled-down synthetic archive (the full-scale one takes a
few minutes; see ``hpcfail generate --scale 1.0``), prints its headline
statistics, validates it, and renders the complete paper report --
every figure and table of "Reading between the lines of failure logs"
(DSN 2013) as text.
"""

import sys

from repro import (
    HardwareGroup,
    Span,
    full_report,
    quick_archive,
    validate_archive,
)
from repro.core.correlations import same_node_any


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    print(f"generating archive (seed={seed}, ~20% LANL scale, 5 years)...")
    archive = quick_archive(seed=seed, years=5.0, scale=0.2)

    print(f"\nsystems: {len(archive)}")
    for ds in archive:
        extras = [
            name
            for name, flag in (
                ("jobs", ds.has_usage),
                ("temps", ds.has_temperature),
                ("layout", ds.has_layout),
            )
            if flag
        ]
        print(
            f"  system {ds.system_id:>2d} [{ds.group}] "
            f"{ds.num_nodes:>4d} nodes, {len(ds.failure_table):>6d} failures"
            + (f"  (+{', '.join(extras)})" if extras else "")
        )

    print("\nvalidating...")
    report = validate_archive(archive)
    print(report.render())

    # The paper's most-quoted number: how much more likely is a node to
    # fail right after it already failed?
    g1 = archive.group(HardwareGroup.GROUP1)
    day = same_node_any(g1, Span.DAY)
    print(
        f"\nheadline: a group-1 node's daily failure probability is "
        f"{day.baseline.value:.2%} on a random day but "
        f"{day.conditional.value:.2%} the day after a failure "
        f"({day.factor:.0f}X)."
    )

    print("\n" + "=" * 72)
    print(full_report(archive))


if __name__ == "__main__":
    main()
