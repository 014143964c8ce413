"""Per-layer attribution for the traced benchmark run.

Only ``run.py --trace 1`` imports this module, so the untraced run that
yields the end-to-end numbers carries none of it.  It has three parts:

* ``instrumented`` wraps public entry points in spans at the module
  namespace they are called from, and counts the rows the CSV readers
  return, restoring the originals on exit;
* ``OpTracer`` traces one operation at a time under its own root span,
  with metrics reset before and read after it, so the counters are
  deltas of that workload alone;
* ``attribute`` folds the spans into self time per layer and turns the
  counters into per-operation values.

Layer names follow the package: simulate, records, core.windows,
core.cache, stats, core.report, viz, prediction and stream.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
from pathlib import Path
from typing import Iterator

from repro import telemetry
from repro.prediction.risk import RiskModel
from repro.stream import StreamAnalysisState

from summary import LayerFold, fold_self_times, tail_percentile

REPORT_SECTIONS = (
    "correlations",
    "nodes",
    "usage",
    "power",
    "temperature",
    "cosmic",
    "regression",
    "interarrival",
    "downtime",
    "lifecycle",
)

#: Spans the program records itself, by the layer they belong to.
PROGRAM_SPANS = {
    "simulate.make_archive": "simulate.make_archive_s",
    "simulate.system": "simulate.make_archive_s",
    "simulate.neutrons": "simulate.make_archive_s",
    "archive_cache.store": "archive_cache.store_s",
    "archive_cache.load": "archive_cache.load_s",
    "io.save_archive": "records.save_archive_s",
    "io.load_archive": "records.load_archive_s",
    "report.run": "report.run_s",
    # Their self time is the pass's wall time minus the consumer's busy
    # time: waiting on the queue.
    "stream.pipeline": "stream.queue_wait_s",
    "stream.batch": "stream.queue_wait_s",
    "stream.process_batch": "stream.consumer_s",
    "stream.alerts": "stream.alerts_s",
    "stream.checkpoint": "stream.checkpoint_write_s",
}

#: Functions wrapped in a span in the module that calls them:
#: ``(module, name, layer)``.
WRAPPED_FUNCTIONS = (
    ("repro.core.cache", "conditional_counts_batch", "windows.conditional_batch_s"),
    ("repro.core.cache", "baseline_counts_batch", "windows.baseline_batch_s"),
    ("repro.core.interarrival", "fit_all", "stats.distfit_s"),
    ("repro.core.downtime", "best_fit", "stats.distfit_s"),
    ("repro.core.regression", "fit_poisson", "stats.glm_s"),
    ("repro.core.regression", "fit_negative_binomial", "stats.glm_s"),
    ("repro.core.temperature", "fit_poisson", "stats.glm_s"),
    ("repro.core.temperature", "fit_negative_binomial", "stats.glm_s"),
    ("repro.stream.analysis", "risk_model_from_state", "stream.risk_refresh_s"),
    ("repro.stream.analysis", "node_risks", "stream.risk_refresh_s"),
    ("workloads", "render_all_figures", "viz.figures_s"),
    ("workloads", "evaluate_risk_model", "prediction.evaluate_s"),
)

#: Methods wrapped in a span on their class: ``(class, name, layer)``.
WRAPPED_METHODS = (
    (StreamAnalysisState, "ingest", "stream.state_ingest_s"),
    (StreamAnalysisState, "finalize", "stream.finalize_s"),
    (RiskModel, "fit", "prediction.risk_fit_s"),
)

#: ``repro.records.io`` readers whose rows count into ``records.load_rows``.
ROW_READERS = (
    "read_failures",
    "read_maintenance",
    "read_jobs",
    "read_temperatures",
    "read_neutrons",
)

#: Layers timed on the traced set-up, per set-up.
SETUP_LAYERS = (
    "simulate.make_archive_s",
    "archive_cache.store_s",
    "archive_cache.load_s",
    "records.save_archive_s",
)

STREAM_DISPOSITIONS = (
    "accepted",
    "late",
    "duplicate",
    "ignored",
    "invalid",
    "unknown_system",
)


def _span_name(layer: str) -> str:
    return layer.removesuffix("_s")


SPAN_LAYERS = {
    **PROGRAM_SPANS,
    **{
        _span_name(layer): layer
        for _, _, layer in WRAPPED_FUNCTIONS + WRAPPED_METHODS
    },
}

#: Layers timed on the traced operations, per operation.
OP_LAYERS = tuple(
    dict.fromkeys(
        [layer for layer in SPAN_LAYERS.values() if layer not in SETUP_LAYERS]
        + [f"report.section.{name}_s" for name in REPORT_SECTIONS]
    )
)


def classify(span) -> str | None:
    """The layer a span's self time belongs to, if any."""
    if span.name == "report.section":
        section = span.attrs.get("section")
        if section in REPORT_SECTIONS:
            return f"report.section.{section}_s"
        return None
    return SPAN_LAYERS.get(span.name)


def _spanned(original, layer: str):
    traced = telemetry.traced(_span_name(layer))
    if isinstance(original, classmethod):
        return classmethod(traced(original.__func__))
    return traced(original)


def _rows_counted(read):
    @functools.wraps(read)
    def wrapper(*args, **kwargs):
        rows = read(*args, **kwargs)
        telemetry.counter_add("records.load_rows", len(rows))
        return rows

    return wrapper


@contextlib.contextmanager
def instrumented() -> Iterator[None]:
    """Install every wrapper for the block; restore the originals after."""
    io = importlib.import_module("repro.records.io")
    owners = [
        (importlib.import_module(module), name, layer)
        for module, name, layer in WRAPPED_FUNCTIONS
    ] + list(WRAPPED_METHODS)
    patches = [
        (owner, name, _spanned(vars(owner)[name], layer))
        for owner, name, layer in owners
    ] + [(io, name, _rows_counted(vars(io)[name])) for name in ROW_READERS]
    originals = [(owner, name, vars(owner)[name]) for owner, name, _ in patches]
    try:
        for owner, name, wrapper in patches:
            setattr(owner, name, wrapper)
        yield
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)


class OpTracer:
    """Traces operations one at a time.

    Each operation runs under its own root span with metrics on; the
    registry is reset before and read after it, and the counter deltas
    are summed over operations.
    """

    def __init__(self) -> None:
        self.roots: list = []
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}

    @contextlib.contextmanager
    def op(self, name: str = "bench.op") -> Iterator[None]:
        telemetry.reset_metrics()
        previous = telemetry.set_metrics_enabled(True)
        try:
            with telemetry.trace(name) as trace, telemetry.span(name):
                yield
        finally:
            telemetry.set_metrics_enabled(previous)
        self.roots.extend(trace.roots)
        snapshot = telemetry.metrics_snapshot()
        for series, value in snapshot["counters"].items():
            self.counters[series] = self.counters.get(series, 0.0) + value
        self.gauges.update(snapshot["gauges"])


def _counter(counters: dict[str, float], name: str) -> float:
    """One counter summed over all its label series."""
    return sum(
        value
        for series, value in counters.items()
        if series == name or series.startswith(name + "{")
    )


def attribute(
    setup: OpTracer,
    ops: OpTracer,
    overhead_ratios: list[float],
    batch_latencies: list[float],
    restore_seconds: list[float],
) -> tuple[dict[str, float], str]:
    """Per-layer metric values, and a table of self times, largest first.

    Set-up layers and ``simulate.events`` are per traced set-up; the
    other values are means per traced operation.  ``overhead_ratios``
    are traced over untraced wall time of adjacent pairs of operations,
    and ``batch_latencies`` come from untraced stream passes.
    """
    n = len(ops.roots)
    setup_fold = fold_self_times(setup.roots, classify)
    fold = fold_self_times(ops.roots, classify)
    counters = ops.counters
    values = {layer: setup_fold.seconds.get(layer, 0.0) for layer in SETUP_LAYERS}
    totals = {layer: fold.seconds.get(layer, 0.0) for layer in OP_LAYERS}
    totals.update(
        {
            "records.load_rows": _counter(counters, "records.load_rows"),
            "windows.cells": _counter(counters, "windows.conditional_cells")
            + _counter(counters, "windows.baseline_cells"),
            "analysis_cache.hits": _counter(counters, "analysis_cache.hits"),
            "analysis_cache.misses": _counter(counters, "analysis_cache.misses"),
            "stats.distfit_calls": fold.calls.get("stats.distfit_s", 0),
            "stats.bootstrap_replicates": _counter(counters, "bootstrap.replicates"),
            "stream.queue_dropped": _counter(counters, "stream.queue_dropped"),
            "stream.queue_rejected": _counter(counters, "stream.queue_rejected"),
            "stream.alerts_fired": _counter(counters, "stream.alerts"),
            "unattributed_s": fold.unattributed,
        }
    )
    for disposition in STREAM_DISPOSITIONS:
        totals[f"stream.events.{disposition}"] = counters.get(
            f"stream.events{{result={disposition}}}", 0.0
        )
    values.update({name: total / n for name, total in totals.items()})
    lookups = values["analysis_cache.hits"] + values["analysis_cache.misses"]
    p90 = tail_percentile(batch_latencies, 90)
    values.update(
        {
            "simulate.events": _counter(setup.counters, "simulate.events"),
            "analysis_cache.hit_ratio": (
                values["analysis_cache.hits"] / lookups if lookups else 0.0
            ),
            "stream.checkpoint_bytes": ops.gauges.get("stream.checkpoint_bytes", 0.0),
            "stream.restore_s": (
                statistics.median(restore_seconds) if restore_seconds else 0.0
            ),
            "stream.batch_p50_ms": (
                1e3 * statistics.median(batch_latencies) if batch_latencies else 0.0
            ),
            "stream.batch_p90_ms": 1e3 * p90 if p90 is not None else 0.0,
            "stream.batch_samples": len(batch_latencies),
            "trace_overhead_ratio": statistics.median(overhead_ratios),
            "layer_coverage": fold.coverage(),
        }
    )
    return values, _table(setup_fold, fold, n)


def _table(setup_fold: LayerFold, fold: LayerFold, n: int) -> str:
    lines = [
        f"self time per layer, mean of {n} traced operations "
        f"({fold.wall / n:.4f} s each, {100 * fold.coverage():.1f}% attributed):"
    ]
    rows = sorted(fold.seconds.items(), key=lambda item: -item[1])
    rows.append(("(unattributed)", fold.unattributed))
    for layer, seconds in rows:
        lines.append(
            f"  {layer:<34s} {seconds / n:10.4f} s {100 * seconds / fold.wall:6.1f}%"
            f"  {fold.calls.get(layer, 0) / n:8.1f} spans"
        )
    lines.append(
        f"self time per layer of the traced set-up ({setup_fold.wall:.4f} s):"
    )
    for layer, seconds in sorted(
        setup_fold.seconds.items(), key=lambda item: -item[1]
    ):
        lines.append(
            f"  {layer:<34s} {seconds:10.4f} s "
            f"{100 * seconds / setup_fold.wall:6.1f}%"
        )
    return "\n".join(lines)


def write_artifacts(
    directory: Path, table: str, setup: OpTracer, ops: OpTracer
) -> None:
    """Write the per-layer table and every traced span as JSONL."""
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "layers.txt").write_text(table + "\n")
    telemetry.write_spans_jsonl(setup.roots + ops.roots, directory / "spans.jsonl")
