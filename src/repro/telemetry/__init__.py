"""Unified telemetry for the generate -> analyze -> report pipeline.

The paper's premise is that failure logs reward structured analysis;
this package turns the toolkit's own runs into the same kind of
analyzable event stream.  Three dependency-free pieces:

* **spans** (:mod:`repro.telemetry.spans`) -- nested wall-clock spans
  collected into one trace tree;
* **metrics** (:mod:`repro.telemetry.metrics`) -- a counter / gauge /
  histogram registry fed by the caches, kernels and generators;
* **exporters and manifests** (:mod:`repro.telemetry.export`,
  :mod:`repro.telemetry.manifest`) -- span-tree text, JSONL traces,
  metrics snapshots and reproducibility manifests.

Everything is **off by default** and every instrumented call site
fast-paths to a no-op on one module-global check; the CI perf gate
(`benchmarks/perf_gate.py`) asserts the disabled overhead stays
negligible.  Enable via:

* CLI -- ``repro COMMAND --telemetry-dir DIR`` on every subcommand
  traces the run and writes ``DIR/trace.jsonl``, ``DIR/trace.txt``
  and ``DIR/manifest.json`` (with the metrics snapshot);
* code -- :func:`trace` (or :func:`start_trace`) and
  :func:`enable_metrics`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from .export import (
    read_spans_jsonl,
    render_metrics,
    render_span_tree,
    span_records,
    write_spans_jsonl,
)
from .manifest import (
    MANIFEST_SCHEMA,
    build_manifest,
    read_manifest,
    write_manifest,
)
from .metrics import (
    MetricsRegistry,
    counter_add,
    disable_metrics,
    enable_metrics,
    gauge_set,
    metrics_enabled,
    metrics_snapshot,
    observe,
    registry,
    reset_metrics,
    set_metrics_enabled,
)
from .spans import (
    NULL_SPAN,
    Span,
    Trace,
    current_trace,
    ensure_trace,
    finish_trace,
    span,
    start_trace,
    trace,
    traced,
    tracing,
)
from .spans import _swap_trace

@contextmanager
def disabled() -> Iterator[None]:
    """Force tracing *and* metrics off inside the block, then restore.

    Used by the CLI for runs without ``--telemetry-dir``, by the no-op
    overhead benchmark and by tests that must measure or assert the
    disabled fast path whatever the caller has switched on.
    """
    previous_trace = _swap_trace(None)
    previous_metrics = set_metrics_enabled(False)
    try:
        yield
    finally:
        _swap_trace(previous_trace)
        set_metrics_enabled(previous_metrics)


__all__ = [
    "MANIFEST_SCHEMA",
    "MetricsRegistry",
    "NULL_SPAN",
    "Span",
    "Trace",
    "build_manifest",
    "counter_add",
    "current_trace",
    "disable_metrics",
    "disabled",
    "enable_metrics",
    "ensure_trace",
    "finish_trace",
    "gauge_set",
    "metrics_enabled",
    "metrics_snapshot",
    "observe",
    "read_manifest",
    "read_spans_jsonl",
    "registry",
    "render_metrics",
    "render_span_tree",
    "reset_metrics",
    "set_metrics_enabled",
    "span",
    "span_records",
    "start_trace",
    "trace",
    "traced",
    "tracing",
    "write_manifest",
    "write_spans_jsonl",
]
