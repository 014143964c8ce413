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

* environment -- ``REPRO_TELEMETRY=trace`` / ``metrics`` / ``all``
  (comma-separable), plus ``REPRO_TRACE_FILE=/path/trace.jsonl`` for
  the JSONL export (honoured by the CLI);
* CLI -- ``repro report --trace/--metrics-out/--manifest`` and
  ``repro generate --trace``;
* code -- :func:`start_trace` / :func:`trace` and
  :func:`enable_metrics`.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

from .export import (
    read_spans_jsonl,
    render_metrics,
    render_span_tree,
    span_records,
    write_metrics_json,
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

#: Environment variable selecting telemetry modes (``trace``,
#: ``metrics``, ``all``; comma-separable; empty/``off`` disables).
ENV_MODE = "REPRO_TELEMETRY"
#: Environment variable naming the JSONL trace export file.
ENV_TRACE_FILE = "REPRO_TRACE_FILE"

_ON_TOKENS = {"1", "on", "true", "all", "both"}


def configure_from_env(environ=None) -> None:
    """Apply ``REPRO_TELEMETRY`` to the global switches.

    Recognised tokens (comma-separated, case-insensitive): ``trace`` /
    ``spans`` for span collection, ``metrics`` for the registry, and
    ``all`` / ``on`` / ``1`` / ``true`` / ``both`` for everything.
    Unset, empty, ``0``, ``off``, ``none`` and ``false`` leave
    telemetry disabled.  Idempotent: an already-active trace is kept.
    """
    env = os.environ if environ is None else environ
    raw = str(env.get(ENV_MODE, "")).strip().lower()
    if not raw or raw in {"0", "off", "none", "false"}:
        return
    tokens = {token.strip() for token in raw.split(",")}
    if tokens & ({"trace", "spans"} | _ON_TOKENS):
        if not tracing():
            start_trace()
    if tokens & ({"metrics"} | _ON_TOKENS):
        enable_metrics()


def trace_file_from_env(environ=None) -> str | None:
    """The ``REPRO_TRACE_FILE`` path, or ``None`` when unset/empty."""
    env = os.environ if environ is None else environ
    return env.get(ENV_TRACE_FILE) or None


@contextmanager
def disabled() -> Iterator[None]:
    """Force tracing *and* metrics off inside the block, then restore.

    Used by the no-op overhead benchmark and by tests that must measure
    or assert the disabled fast path regardless of ambient
    ``REPRO_TELEMETRY`` state.
    """
    previous_trace = _swap_trace(None)
    previous_metrics = set_metrics_enabled(False)
    try:
        yield
    finally:
        _swap_trace(previous_trace)
        set_metrics_enabled(previous_metrics)


__all__ = [
    "ENV_MODE",
    "ENV_TRACE_FILE",
    "MANIFEST_SCHEMA",
    "MetricsRegistry",
    "NULL_SPAN",
    "Span",
    "Trace",
    "build_manifest",
    "configure_from_env",
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
    "trace_file_from_env",
    "traced",
    "tracing",
    "write_manifest",
    "write_metrics_json",
    "write_spans_jsonl",
]
