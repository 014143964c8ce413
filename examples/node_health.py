"""Node-health triage: Sections IV-VI as an operator tool.

Run:
    python examples/node_health.py [archive-dir]

Finds the failure-prone nodes of each large system, explains *how* they
fail differently (root-cause breakdown, per-type factors), checks the
usage hypothesis (are they used differently?), and confirms whether the
equal-failure-rates hypothesis survives -- the complete Section IV-VI
workflow of the paper.
"""

import sys
from pathlib import Path

import numpy as np

from repro import load_archive, quick_archive
from repro.core.nodes import (
    breakdown_comparison,
    failures_per_node,
    prone_type_probabilities,
    room_area_analysis,
)
from repro.core.usage import usage_failure_correlation
from repro.core.users import UserAnalysisError, user_failure_rates
from repro.records.taxonomy import format_label
from repro.records.timeutil import Span


def main() -> None:
    if len(sys.argv) > 1:
        archive = load_archive(Path(sys.argv[1]))
    else:
        print("generating a synthetic archive...")
        archive = quick_archive(seed=3, years=5.0, scale=0.2)

    # The three largest systems, like the paper's Figure 4.
    largest = sorted(archive, key=lambda ds: -ds.num_nodes)[:3]

    for ds in largest:
        if not len(ds.failure_table):
            continue
        print(f"\n=== system {ds.system_id} ({ds.num_nodes} nodes) ===")
        fc = failures_per_node(ds)
        counts = fc.counts
        print(
            f"prone node: {fc.prone_node} with {int(counts[fc.prone_node])} "
            f"failures ({fc.prone_factor:.1f}X the mean of {counts.mean():.1f})"
        )
        print(
            f"equal-rates hypothesis rejected: {fc.equal_rates.significant} "
            f"(chi2={fc.equal_rates.statistic:.0f}, "
            f"p={fc.equal_rates.p_value:.2e}); without the prone node: "
            f"{fc.equal_rates_without_prone.significant if fc.equal_rates_without_prone else 'n/a'}"
        )
        bd = breakdown_comparison(ds, fc.prone_node)
        print("root-cause shares (prone vs rest):")
        for cat in bd.prone_shares:
            print(
                f"  {format_label(cat):<14s} {bd.prone_shares[cat]:6.1%} "
                f"vs {bd.rest_shares[cat]:6.1%}"
            )
        print("weekly per-type probabilities (prone vs rest):")
        for cell in prone_type_probabilities(
            ds, fc.prone_node, spans=[Span.WEEK]
        ):
            p, r = cell.prone.estimate().value, cell.rest.estimate().value
            print(
                f"  {format_label(cell.kind):<14s} {p:7.2%} vs {r:7.2%} "
                f"({'NA' if cell.factor != cell.factor else f'{cell.factor:.0f}X'})"
            )
        if ds.has_layout:
            area = room_area_analysis(ds)
            print(
                f"machine-room area effect: "
                f"{'detected' if area.test.significant else 'none detected'} "
                f"(p={area.test.p_value:.3f}) -- the paper found none"
            )

    print("\n=== usage hypothesis (systems with job logs) ===")
    for ds in archive:
        if not ds.has_usage:
            continue
        r = usage_failure_correlation(ds)
        wo = r.jobs_pearson_without_prone
        print(
            f"system {ds.system_id}: failures~jobs r="
            f"{r.jobs_pearson.coefficient:+.3f} "
            f"(p={r.jobs_pearson.p_value:.1e}); without node "
            f"{r.prone_node}: r="
            + (f"{wo.coefficient:+.3f} (p={wo.p_value:.2f})" if wo else "n/a")
        )
        try:
            u = user_failure_rates(ds)
            top = u.users[0]
            rates = u.rates
            print(
                f"  heaviest {len(u.users)} users: failure-rate spread "
                f"{u.rate_spread:.0f}X "
                f"(max {rates.max():.2e}/proc-day); per-user rates differ "
                f"significantly: {u.anova.significant} "
                f"(p={u.anova.p_value:.1e})"
            )
        except UserAnalysisError as exc:
            print(f"  user analysis skipped: {exc}")

    print(
        "\nconclusion (matches the paper): prone nodes are used "
        "differently -- they are login/launch nodes -- and how a node is "
        "exercised shapes its failure behaviour."
    )


if __name__ == "__main__":
    main()
