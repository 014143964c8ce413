"""ASCII renderings of every figure in the paper.

Each ``figure*`` function runs the corresponding analysis from
:mod:`repro.core` and renders it with the chart primitives of
:mod:`repro.viz.ascii`, labelled like the paper's figure.  Functions
take an :class:`~repro.records.dataset.Archive` (or the relevant system
list) and return a string; :func:`render_all_figures` concatenates every
figure the archive's data supports.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..core import correlations, cosmic, nodes, power, temperature, usage, users
from ..records.dataset import Archive, HardwareGroup, SystemDataset
from ..records.taxonomy import Category, format_label
from ..records.timeutil import Span
from .ascii import (
    breakdown_chart,
    grouped_bar_chart,
    hbar_chart,
    scatter_plot,
    sparkline,
)


def _factor(x: float) -> str:
    return "NA" if math.isnan(x) else f"{x:.1f}x"


def _group_label(group: HardwareGroup) -> str:
    return "LANL " + ("Group-1" if group is HardwareGroup.GROUP1 else "Group-2")


def figure1a(archive: Archive, group: HardwareGroup) -> str:
    """Fig. 1(a): P(any node-failure follows a failure of type X), weekly."""
    systems = archive.group(group)
    if not systems:
        return f"figure 1(a) [{group}]: no systems"
    results = correlations.same_node_by_trigger(systems)
    base = results[0].comparison.baseline.value if results else float("nan")
    labels = [format_label(r.trigger) for r in results] + ["Random week"]
    values = [r.comparison.conditional.value for r in results] + [base]
    annotations = [_factor(r.comparison.factor) for r in results] + [""]
    return hbar_chart(
        labels,
        values,
        annotations,
        title=(
            f"Figure 1(a) [{_group_label(group)}] -- P(any failure in the "
            "week after a type-X failure)"
        ),
    )


def figure1b(archive: Archive, group: HardwareGroup) -> str:
    """Fig. 1(b): same-type vs any-type vs random, per target type."""
    systems = archive.group(group)
    if not systems:
        return f"figure 1(b) [{group}]: no systems"
    results = correlations.same_node_by_target(systems)
    groups = [format_label(r.target) for r in results]
    series = {
        "after same type": [r.after_same.conditional.value for r in results],
        "after ANY failure": [r.after_any.conditional.value for r in results],
        "random week": [r.random.value for r in results],
    }
    return grouped_bar_chart(
        groups,
        series,
        title=(
            f"Figure 1(b) [{_group_label(group)}] -- weekly probability of a "
            "type-X failure"
        ),
    )


def figure2(archive: Archive) -> str:
    """Fig. 2: same-rack correlations (group-1 systems with layouts)."""
    systems = [
        ds
        for ds in archive.group(HardwareGroup.GROUP1)
        if ds.has_layout
    ]
    if not systems:
        return "figure 2: no group-1 systems with machine layouts"
    triggers = correlations.same_rack_by_trigger(systems)
    left = hbar_chart(
        [format_label(r.trigger) for r in triggers],
        [r.comparison.conditional.value for r in triggers],
        [_factor(r.comparison.factor) for r in triggers],
        title=(
            "Figure 2(a) -- P(another node in the rack fails in the week "
            "after a type-X failure)"
        ),
    )
    targets = correlations.same_rack_by_target(systems)
    cat_targets = [r for r in targets if isinstance(r.target, Category)]
    right = grouped_bar_chart(
        [format_label(r.target) for r in cat_targets],
        {
            "after same type": [
                r.after_same.conditional.value for r in cat_targets
            ],
            "after ANY failure": [
                r.after_any.conditional.value for r in cat_targets
            ],
            "random week": [r.random.value for r in cat_targets],
        },
        title="Figure 2(b) -- rack-scope weekly probability of a type-X failure",
    )
    return left + "\n\n" + right


def figure3(archive: Archive) -> str:
    """Fig. 3: same-system correlations, both groups."""
    parts = []
    for group in (HardwareGroup.GROUP1, HardwareGroup.GROUP2):
        systems = archive.group(group)
        if not systems:
            continue
        results = correlations.same_system_by_trigger(systems)
        parts.append(
            hbar_chart(
                [format_label(r.trigger) for r in results],
                [r.comparison.conditional.value for r in results],
                [_factor(r.comparison.factor) for r in results],
                title=(
                    f"Figure 3 [{_group_label(group)}] -- P(another node in "
                    "the system fails in the week after a type-X failure)"
                ),
            )
        )
    return "\n\n".join(parts) if parts else "figure 3: no systems"


def figure4(archive: Archive, system_ids: Sequence[int] = (18, 19, 20)) -> str:
    """Fig. 4: total failures per node id (scatter per system)."""
    parts = []
    for sid in system_ids:
        if sid not in archive.systems:
            continue
        ds = archive[sid]
        try:
            r = nodes.failures_per_node(ds)
        except nodes.NodeAnalysisError:
            continue
        parts.append(
            scatter_plot(
                np.arange(ds.num_nodes),
                r.counts,
                title=(
                    f"Figure 4 -- System {sid}: failures per node "
                    f"(prone node {r.prone_node}: {r.prone_factor:.1f}x mean; "
                    f"equal rates rejected: {r.equal_rates.significant})"
                ),
                xlabel="Node ID",
                ylabel="#fails",
                marks=[r.prone_node],
            )
        )
    return "\n\n".join(parts) if parts else "figure 4: no analysable systems"


def figure5(archive: Archive, system_ids: Sequence[int] = (18, 19, 20)) -> str:
    """Fig. 5: root-cause breakdown, prone node vs rest, per system."""
    parts = []
    for sid in system_ids:
        if sid not in archive.systems:
            continue
        try:
            bd = nodes.breakdown_comparison(archive[sid])
        except nodes.NodeAnalysisError:
            continue
        groups = [format_label(c) for c in bd.prone_shares]
        parts.append(
            grouped_bar_chart(
                groups,
                {
                    f"node {bd.prone_node}": list(bd.prone_shares.values()),
                    "rest of nodes": list(bd.rest_shares.values()),
                },
                title=f"Figure 5 -- System {sid}: root-cause shares",
                value_format="{:.1%}",
            )
        )
    return "\n\n".join(parts) if parts else "figure 5: no analysable systems"


def figure6(
    archive: Archive,
    system_id: int = 18,
    span: Span = Span.WEEK,
) -> str:
    """Fig. 6: per-type window probability, prone node vs rest."""
    if system_id not in archive.systems:
        return f"figure 6: system {system_id} not in archive"
    cells = nodes.prone_type_probabilities(archive[system_id], spans=[span])
    groups = [format_label(c.kind) for c in cells]
    return grouped_bar_chart(
        groups,
        {
            "prone node": [c.prone.estimate().value for c in cells],
            "rest of nodes": [c.rest.estimate().value for c in cells],
        },
        title=(
            f"Figure 6 -- System {system_id}: P(type failure in a random "
            f"{span}), prone node vs rest"
        ),
        value_format="{:.2%}",
    )


def figure7(archive: Archive) -> str:
    """Fig. 7: failures vs utilization and vs job count, usage systems."""
    parts = []
    for ds in archive:
        if not ds.has_usage:
            continue
        try:
            r = usage.usage_failure_correlation(ds)
        except usage.UsageAnalysisError:
            continue
        parts.append(
            scatter_plot(
                r.utilization * 100.0,
                r.failures,
                title=(
                    f"Figure 7(a) -- System {ds.system_id}: failures vs "
                    f"utilization (X = node {r.prone_node})"
                ),
                xlabel="Node utilization %",
                ylabel="#fails",
                marks=[r.prone_node],
            )
        )
        parts.append(
            scatter_plot(
                r.num_jobs,
                r.failures,
                title=(
                    f"Figure 7(b) -- System {ds.system_id}: failures vs jobs "
                    f"(Pearson r={r.jobs_pearson.coefficient:+.3f}; without "
                    f"node {r.prone_node}: "
                    + (
                        f"{r.jobs_pearson_without_prone.coefficient:+.3f}"
                        if r.jobs_pearson_without_prone
                        else "NA"
                    )
                    + ")"
                ),
                xlabel="Total jobs assigned to node",
                ylabel="#fails",
                marks=[r.prone_node],
            )
        )
    return "\n\n".join(parts) if parts else "figure 7: no usage systems"


def figure8(archive: Archive) -> str:
    """Fig. 8: node-caused job failures per processor-day, per heavy user."""
    parts = []
    for ds in archive:
        if not ds.has_usage:
            continue
        try:
            r = users.user_failure_rates(ds)
        except users.UserAnalysisError:
            continue
        parts.append(
            scatter_plot(
                np.arange(len(r.users)),
                r.rates,
                title=(
                    f"Figure 8 -- System {ds.system_id}: failures per "
                    f"processor-day for the {len(r.users)} heaviest users "
                    f"(rates differ: {r.anova.significant}, "
                    f"p={r.anova.p_value:.1e})"
                ),
                xlabel="User (by decreasing usage)",
                ylabel="rate",
            )
        )
    return "\n\n".join(parts) if parts else "figure 8: no usage systems"


def figure9(archive: Archive) -> str:
    """Fig. 9: breakdown of environmental failures."""
    try:
        bd = power.environment_breakdown(list(archive))
    except power.PowerAnalysisError as exc:
        return f"figure 9: {exc}"
    return breakdown_chart(
        {format_label(sub): share for sub, share in bd.items()},
        title="Figure 9 -- Breakdown of environmental failures",
    )


def _impact_figure(cells, title: str) -> str:
    spans = sorted({c.span for c in cells}, key=lambda s: s.days)
    parts = []
    for span in spans:
        span_cells = [c for c in cells if c.span is span]
        labels = [format_label(c.trigger) for c in span_cells]
        if len({c.target for c in span_cells}) > 1:
            labels = [
                f"{format_label(c.trigger)} -> {format_label(c.target)}"
                for c in span_cells
            ]
        parts.append(
            hbar_chart(
                labels,
                [c.comparison.conditional.value for c in span_cells],
                [_factor(c.comparison.factor) for c in span_cells],
                title=f"{title} (within a {span})",
            )
        )
    return "\n\n".join(parts)


def figure10(archive: Archive) -> str:
    """Fig. 10: power problems -> hardware failures (left and right)."""
    systems = list(archive)
    left = _impact_figure(
        power.hardware_impact(systems),
        "Figure 10 (left) -- P(hardware failure after a power problem)",
    )
    right = _impact_figure(
        power.hardware_component_impact(systems),
        "Figure 10 (right) -- per-component probability after power problems",
    )
    return left + "\n\n" + right


def figure11(archive: Archive) -> str:
    """Fig. 11: power problems -> software failures (left and right)."""
    systems = list(archive)
    left = _impact_figure(
        power.software_impact(systems),
        "Figure 11 (left) -- P(software failure after a power problem)",
    )
    right = _impact_figure(
        power.software_subtype_impact(systems),
        "Figure 11 (right) -- per-subtype probability after power problems",
    )
    return left + "\n\n" + right


def figure12(archive: Archive, system_id: int = 2) -> str:
    """Fig. 12: time/space layout of power problems in one system."""
    if system_id not in archive.systems:
        return f"figure 12: system {system_id} not in archive"
    layout = power.time_space_layout(archive[system_id])
    parts = []
    for sub, (times, node_ids) in layout.points.items():
        if times.size == 0:
            parts.append(f"{format_label(sub)}: no events")
            continue
        parts.append(
            scatter_plot(
                times,
                node_ids,
                title=(
                    f"Figure 12 -- System {system_id}: {format_label(sub)} "
                    f"({times.size} events, {layout.node_spread[sub]} nodes, "
                    f"repeat share {layout.repeat_share[sub]:.0%})"
                ),
                xlabel="Time (day)",
                ylabel="node",
                height=12,
            )
        )
    return "\n\n".join(parts)


def figure13(archive: Archive) -> str:
    """Fig. 13: fan/chiller failures -> hardware failures."""
    systems = list(archive)
    left = _impact_figure(
        temperature.fan_chiller_impact(systems),
        "Figure 13 (left) -- P(hardware failure after fan/chiller failure)",
    )
    right = _impact_figure(
        temperature.thermal_component_impact(systems),
        "Figure 13 (right) -- per-component probability after fan/chiller",
    )
    return left + "\n\n" + right


def figure14(
    archive: Archive, system_ids: Sequence[int] = (2, 18, 19, 20)
) -> str:
    """Fig. 14: monthly DRAM/CPU failure probability vs neutron counts."""
    if not archive.neutron_series:
        return "figure 14: no neutron series in archive"
    parts = []
    try:
        results = cosmic.cosmic_ray_analysis(
            archive, [s for s in system_ids if s in archive.systems]
        )
    except cosmic.CosmicAnalysisError as exc:
        return f"figure 14: {exc}"
    for r in results:
        coef = r.pearson.coefficient if r.pearson else float("nan")
        parts.append(
            scatter_plot(
                r.monthly_counts,
                r.monthly_probability,
                title=(
                    f"Figure 14 -- System {r.system_id} "
                    f"{format_label(r.subtype)}: monthly failure probability "
                    f"vs neutron counts (r={coef:+.2f})"
                ),
                xlabel="Monthly neutron counts/min",
                ylabel="P",
                height=10,
            )
        )
    return "\n\n".join(parts)


def failure_timeline(ds: SystemDataset, bins: int = 90) -> str:
    """Extra: a sparkline of the system's failure density over time."""
    times = ds.failure_table.times
    if times.size == 0:
        return f"system {ds.system_id}: no failures"
    counts, _ = np.histogram(
        times, bins=bins, range=(ds.period.start, ds.period.end)
    )
    return (
        f"system {ds.system_id} failure density "
        f"({times.size} failures over {ds.period.length:.0f} days):\n"
        + sparkline(counts)
    )


def render_all_figures(archive: Archive) -> str:
    """Every figure the archive's data supports, concatenated."""
    sections = [
        figure1a(archive, HardwareGroup.GROUP1),
        figure1a(archive, HardwareGroup.GROUP2),
        figure1b(archive, HardwareGroup.GROUP1),
        figure1b(archive, HardwareGroup.GROUP2),
        figure2(archive),
        figure3(archive),
        figure4(archive),
        figure5(archive),
        figure6(archive),
        figure7(archive),
        figure8(archive),
        figure9(archive),
        figure10(archive),
        figure11(archive),
        figure12(archive),
        figure13(archive),
        figure14(archive),
    ]
    return "\n\n".join(s for s in sections if s)
