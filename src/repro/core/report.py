"""Plain-text rendering of every paper analysis.

:func:`full_report` runs all sections against an archive and renders
paper-style tables; the per-section renderers are also exposed so the
CLI and examples can print individual analyses.  Analyses whose data is
missing (no usage logs, no layout, ...) degrade to an explanatory line
instead of failing, mirroring how the paper restricts each analysis to
the systems that support it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..records.dataset import Archive, HardwareGroup, SystemDataset
from ..records.taxonomy import format_label
from ..records.timeutil import Span
from ..stats.glm import GLMError
from .. import telemetry
from . import correlations, cosmic, downtime, interarrival, lifecycle, nodes, power, temperature, users, usage
from .cache import cache_stats
from .regression import (
    RegressionAnalysisError,
    fit_joint_regression,
    render_coefficient_table,
)
from .windows import WindowComparison


def _pct(x: float) -> str:
    if x != x:  # NaN
        return "NA"
    return f"{100.0 * x:.2f}%"


def _factor(x: float) -> str:
    if x != x:
        return "NA"
    return f"{x:.1f}x"


def _bar(comparison: WindowComparison, label: str) -> str:
    c, b = comparison.conditional, comparison.baseline
    sig = "sig" if comparison.test.significant else "ns"
    return (
        f"  {label:<28s} cond={_pct(c.value):>8s} base={_pct(b.value):>8s} "
        f"factor={_factor(comparison.factor):>8s} [{sig}]"
    )


def _group_systems(archive: Archive, group: HardwareGroup) -> list[SystemDataset]:
    return archive.group(group)


def render_correlations(archive: Archive) -> str:
    """Section III: same-node / same-rack / same-system correlations."""
    lines = ["== Section III: failure correlations =="]
    for group in (HardwareGroup.GROUP1, HardwareGroup.GROUP2):
        systems = _group_systems(archive, group)
        if not systems:
            lines.append(f"[{group}] no systems in archive")
            continue
        lines.append(f"[{group}] same node, after ANY failure:")
        for span in (Span.DAY, Span.WEEK):
            lines.append(
                _bar(correlations.same_node_any(systems, span), f"random {span}")
            )
        lines.append(f"[{group}] Figure 1(a): weekly follow-up by trigger type:")
        for tr in correlations.same_node_by_trigger(systems):
            lines.append(_bar(tr.comparison, f"after {format_label(tr.trigger)}"))
        lines.append(
            f"[{group}] Figure 1(b): weekly same-type vs any-type targets:"
        )
        for tg in correlations.same_node_by_target(systems):
            lines.append(
                f"  target {format_label(tg.target):<26s} "
                f"P(after same)={_pct(tg.after_same.conditional.value):>8s} "
                f"({_factor(tg.after_same.factor)})  "
                f"P(after any)={_pct(tg.after_any.conditional.value):>8s} "
                f"({_factor(tg.after_any.factor)})  "
                f"random={_pct(tg.random.value):>8s}"
            )
    g1 = _group_systems(archive, HardwareGroup.GROUP1)
    with_layout = [ds for ds in g1 if ds.has_layout]
    if with_layout:
        lines.append("[group-1] same rack (Figure 2):")
        for span in (Span.DAY, Span.WEEK):
            lines.append(
                _bar(
                    correlations.same_rack_any(with_layout, span),
                    f"any, random {span}",
                )
            )
        for tr in correlations.same_rack_by_trigger(with_layout):
            lines.append(_bar(tr.comparison, f"after {format_label(tr.trigger)}"))
    else:
        lines.append("[group-1] no layouts; rack analysis skipped")
    for group in (HardwareGroup.GROUP1, HardwareGroup.GROUP2):
        systems = _group_systems(archive, group)
        if systems:
            lines.append(f"[{group}] same system (Figure 3):")
            lines.append(
                _bar(
                    correlations.same_system_any(systems, Span.WEEK),
                    "any, random week",
                )
            )
            for tr in correlations.same_system_by_trigger(systems):
                lines.append(
                    _bar(tr.comparison, f"after {format_label(tr.trigger)}")
                )
    return "\n".join(lines)


def render_nodes(archive: Archive, system_ids: Sequence[int]) -> str:
    """Section IV: failure-prone nodes (Figures 4-6)."""
    lines = ["== Section IV: failure-prone nodes =="]
    for sid in system_ids:
        if sid not in archive.systems:
            continue
        ds = archive[sid]
        try:
            fc = nodes.failures_per_node(ds)
        except nodes.NodeAnalysisError as exc:
            lines.append(f"system {sid}: {exc}")
            continue
        wo = fc.equal_rates_without_prone
        lines.append(
            f"system {sid}: prone node {fc.prone_node} has "
            f"{fc.prone_factor:.1f}x the mean failures; equal-rates "
            f"rejected={fc.equal_rates.significant} "
            f"(p={fc.equal_rates.p_value:.2e}); without prone node "
            f"rejected={wo.significant if wo else 'NA'}"
        )
        try:
            bd = nodes.breakdown_comparison(ds, fc.prone_node)
            lines.append(
                f"  dominant mode: prone={format_label(bd.dominant(True))}, "
                f"rest={format_label(bd.dominant(False))}"
            )
        except nodes.NodeAnalysisError:
            pass
        for cell in nodes.prone_type_probabilities(
            ds, fc.prone_node, spans=[Span.WEEK]
        ):
            p = cell.prone.estimate().value
            r = cell.rest.estimate().value
            lines.append(
                f"  {format_label(cell.kind):<16s} week: prone={_pct(p):>8s} "
                f"rest={_pct(r):>8s} factor={_factor(cell.factor):>9s}"
            )
    return "\n".join(lines)


def render_usage(archive: Archive) -> str:
    """Sections V and VI: usage and user effects (Figures 7, 8)."""
    lines = ["== Sections V-VI: usage and users =="]
    any_usage = False
    for ds in archive:
        if not ds.has_usage:
            continue
        any_usage = True
        r = usage.usage_failure_correlation(ds)
        wo = r.jobs_pearson_without_prone
        lines.append(
            f"system {ds.system_id}: jobs~failures Pearson r="
            f"{r.jobs_pearson.coefficient:.3f} "
            f"(sig={r.jobs_pearson.significant}); without node "
            f"{r.prone_node}: r="
            + (f"{wo.coefficient:.3f} (sig={wo.significant})" if wo else "NA")
        )
        try:
            u = users.user_failure_rates(ds)
            lines.append(
                f"  users: {u.total_users} total; top-{len(u.users)} rate "
                f"spread {u.rate_spread:.0f}x; saturated model better: "
                f"{u.anova.significant} (p={u.anova.p_value:.2e})"
            )
        except users.UserAnalysisError as exc:
            lines.append(f"  users: {exc}")
    if not any_usage:
        lines.append("no job logs in archive; Sections V-VI skipped")
    return "\n".join(lines)


def render_power(archive: Archive) -> str:
    """Section VII: power problems (Figures 9-12)."""
    lines = ["== Section VII: power =="]
    systems = list(archive)
    try:
        bd = power.environment_breakdown(systems)
        lines.append("Figure 9 (environmental breakdown): " + ", ".join(
            f"{format_label(sub)}={_pct(share)}" for sub, share in bd.items()
        ))
    except power.PowerAnalysisError as exc:
        lines.append(f"Figure 9: {exc}")
    lines.append("Figure 10 (left): hardware failures after power problems:")
    for cell in power.hardware_impact(systems):
        lines.append(
            _bar(cell.comparison, f"{format_label(cell.trigger)} / {cell.span}")
        )
    lines.append("Figure 10 (right): per-component month factors:")
    for cell in power.hardware_component_impact(systems):
        lines.append(
            _bar(
                cell.comparison,
                f"{format_label(cell.trigger)} -> {format_label(cell.target)}",
            )
        )
    lines.append("Section VII-A.2: unscheduled maintenance within a month:")
    for cell in power.maintenance_impact(systems):
        lines.append(_bar(cell.comparison, f"after {format_label(cell.trigger)}"))
    lines.append("Figure 11 (left): software failures after power problems:")
    for cell in power.software_impact(systems):
        lines.append(
            _bar(cell.comparison, f"{format_label(cell.trigger)} / {cell.span}")
        )
    lines.append("Figure 11 (right): per-software-subtype month factors:")
    for cell in power.software_subtype_impact(systems):
        lines.append(
            _bar(
                cell.comparison,
                f"{format_label(cell.trigger)} -> {format_label(cell.target)}",
            )
        )
    return "\n".join(lines)


def render_temperature(archive: Archive) -> str:
    """Section VIII: temperature (Figure 13 and the null regressions)."""
    lines = ["== Section VIII: temperature =="]
    temp_systems = [ds for ds in archive if ds.has_temperature]
    for ds in temp_systems:
        try:
            r = temperature.temperature_regressions(ds)
            lines.append(
                f"system {ds.system_id}: avg/max/var temperature "
                f"significant for hardware failures: {r.any_significant}"
            )
        except temperature.TemperatureAnalysisError as exc:
            lines.append(f"system {ds.system_id}: {exc}")
    if not temp_systems:
        lines.append("no temperature data; regressions skipped")
    systems = list(archive)
    lines.append("Figure 13 (left): hardware failures after fan/chiller:")
    for cell in temperature.fan_chiller_impact(systems):
        lines.append(
            _bar(cell.comparison, f"{format_label(cell.trigger)} / {cell.span}")
        )
    lines.append("Figure 13 (right): per-component month factors:")
    for cell in temperature.thermal_component_impact(systems):
        lines.append(
            _bar(
                cell.comparison,
                f"{format_label(cell.trigger)} -> {format_label(cell.target)}",
            )
        )
    return "\n".join(lines)


def render_cosmic(archive: Archive, system_ids: Sequence[int] | None = None) -> str:
    """Section IX: cosmic rays (Figure 14)."""
    lines = ["== Section IX: cosmic rays =="]
    if not archive.neutron_series:
        lines.append("no neutron series; skipped")
        return "\n".join(lines)
    ids = [s for s in (system_ids or archive.system_ids) if s in archive.systems]
    try:
        for r in cosmic.cosmic_ray_analysis(archive, ids):
            coef = r.pearson.coefficient if r.pearson else float("nan")
            lines.append(
                f"system {r.system_id} {format_label(r.subtype):<12s} "
                f"r={coef:+.3f} associated={r.associated}"
            )
    except cosmic.CosmicAnalysisError as exc:
        lines.append(str(exc))
    return "\n".join(lines)


def render_regression(archive: Archive) -> str:
    """Section X: joint regression (Tables II and III)."""
    lines = ["== Section X: joint regression =="]
    done = False
    for ds in archive:
        if not (ds.has_usage and ds.has_temperature and ds.has_layout):
            continue
        try:
            r = fit_joint_regression(ds)
        except (RegressionAnalysisError, GLMError) as exc:
            # Tiny archives can produce degenerate designs (e.g. a
            # constant num_hightemp column); report why instead of dying.
            lines.append(f"system {ds.system_id}: regression skipped ({exc})")
            continue
        done = True
        lines.append(f"system {ds.system_id} -- Table II (Poisson):")
        lines.append(render_coefficient_table(r.poisson))
        lines.append(f"system {ds.system_id} -- Table III (negative binomial):")
        lines.append(render_coefficient_table(r.negbin))
        lines.append(
            "significant in both models: "
            + (", ".join(r.significant_predictors()) or "(none)")
        )
    if not done:
        lines.append(
            "no system carries jobs + temperature + layout; Section X skipped"
        )
    return "\n".join(lines)


def render_interarrival(archive: Archive, max_systems: int = 3) -> str:
    """Companion analysis: classical inter-arrival modeling (paper Sec. I).

    Not a paper figure -- the paper positions itself against this lens --
    but included so both views are available from one report.
    """
    lines = ["== Companion: classical inter-arrival modeling =="]
    shown = 0
    for ds in sorted(archive, key=lambda d: -len(d.failure_table)):
        if shown >= max_systems:
            break
        try:
            model = interarrival.fit_interarrival_model(ds)
        except interarrival.InterArrivalError as exc:
            lines.append(f"system {ds.system_id}: {exc}")
            continue
        lines.append(interarrival.render_interarrival_report(model))
        shown += 1
    if shown == 0:
        lines.append("no system has enough failures to model")
    return "\n".join(lines)


def render_downtime(archive: Archive) -> str:
    """Companion analysis: repair times and availability."""
    return downtime.render_downtime_report(list(archive))


def render_lifecycle(archive: Archive, max_systems: int = 3) -> str:
    """Extension: failure rate over system age (burn-in detection)."""
    lines = ["== Extension: lifecycle (failure rate vs system age) =="]
    shown = 0
    for ds in sorted(archive, key=lambda d: -len(d.failure_table)):
        if shown >= max_systems:
            break
        try:
            result = lifecycle.lifecycle_analysis(ds)
        except lifecycle.LifecycleAnalysisError as exc:
            lines.append(f"system {ds.system_id}: {exc}")
            continue
        lines.append(lifecycle.render_lifecycle_report(result))
        shown += 1
    if shown == 0:
        lines.append("no system has a long enough record")
    return "\n".join(lines)


#: Report sections in output order: ``(name, renderer)``; the renderer
#: takes the archive and the Section IV systems.  The report joins them
#: in this order, and ``repro section NAME`` dispatches through it.
REPORT_SECTIONS: tuple[
    tuple[str, Callable[[Archive, Sequence[int]], str]], ...
] = (
    ("correlations", lambda archive, fig4: render_correlations(archive)),
    ("nodes", lambda archive, fig4: render_nodes(archive, fig4)),
    ("usage", lambda archive, fig4: render_usage(archive)),
    ("power", lambda archive, fig4: render_power(archive)),
    ("temperature", lambda archive, fig4: render_temperature(archive)),
    ("cosmic", lambda archive, fig4: render_cosmic(archive)),
    ("regression", lambda archive, fig4: render_regression(archive)),
    ("interarrival", lambda archive, fig4: render_interarrival(archive)),
    ("downtime", lambda archive, fig4: render_downtime(archive)),
    ("lifecycle", lambda archive, fig4: render_lifecycle(archive)),
)


@dataclass(frozen=True, slots=True)
class ReportProfile:
    """Where a :func:`full_report` run spent its time.

    Attributes:
        section_seconds: per-section wall time, in output order.
        total_seconds: wall time of the whole report.
        cache_hits: analysis-cache hits during this run (pooled over
            the archive's systems).
        cache_misses: analysis-cache misses during this run.
        cache_entries: memoized values held after the run.
    """

    section_seconds: tuple[tuple[str, float], ...]
    total_seconds: float
    cache_hits: int
    cache_misses: int
    cache_entries: int

    def render(self) -> str:
        """Human-readable profile table (the ``--profile`` output)."""
        lines = ["report profile:"]
        for name, seconds in self.section_seconds:
            lines.append(f"  {name:<14s} {seconds:8.3f}s")
        lines.append(f"  {'total':<14s} {self.total_seconds:8.3f}s")
        lines.append(
            f"analysis cache: {self.cache_hits} hits, "
            f"{self.cache_misses} misses, {self.cache_entries} entries"
        )
        return "\n".join(lines)


def _run_report(
    archive: Archive, fig4_systems: Sequence[int]
) -> tuple[str, ReportProfile]:
    """Render every section in order, timed via telemetry spans.

    Each section renders inside a ``report.section`` span under one
    ``report.run`` root; the :class:`ReportProfile` is read back off
    those spans, so the ``--profile`` table and a ``--trace`` tree are
    two views of the same measurement.  :func:`telemetry.ensure_trace`
    makes the spans real even when telemetry is globally disabled (the
    private trace is discarded; only the durations survive in the
    profile).
    """
    hits0, misses0, _ = cache_stats(archive)

    def timed_section(
        name: str, render: Callable[[Archive, Sequence[int]], str]
    ) -> tuple[str, tuple[str, float]]:
        with telemetry.span("report.section", section=name) as section_span:
            text = render(archive, fig4_systems)
        return text, (name, section_span.duration)

    with telemetry.ensure_trace():
        with telemetry.span("report.run") as run_span:
            results = [timed_section(*entry) for entry in REPORT_SECTIONS]
    hits1, misses1, entries = cache_stats(archive)
    run_span.set_attrs(
        cache_hits=hits1 - hits0,
        cache_misses=misses1 - misses0,
        cache_entries=entries,
    )
    profile = ReportProfile(
        section_seconds=tuple(seconds for _, seconds in results),
        total_seconds=run_span.duration,
        cache_hits=hits1 - hits0,
        cache_misses=misses1 - misses0,
        cache_entries=entries,
    )
    return "\n\n".join(text for text, _ in results), profile


def full_report(
    archive: Archive, fig4_systems: Sequence[int] = (18, 19, 20)
) -> str:
    """Run every section and render one combined report.

    Args:
        archive: the archive to analyse.
        fig4_systems: systems to run the Section IV per-node analysis on.
    """
    text, _ = _run_report(archive, fig4_systems)
    return text


def profiled_full_report(
    archive: Archive, fig4_systems: Sequence[int] = (18, 19, 20)
) -> tuple[str, ReportProfile]:
    """:func:`full_report` plus a :class:`ReportProfile` of the run."""
    return _run_report(archive, fig4_systems)
