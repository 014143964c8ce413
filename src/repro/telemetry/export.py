"""Exporters: span-tree text, JSONL traces, metrics snapshots.

Three views of one run, for three audiences:

* :func:`render_span_tree` -- the human-facing ``--trace`` output, an
  indented tree with durations and attributes;
* :func:`write_spans_jsonl` -- one JSON object per span with explicit
  ``id``/``parent`` links, the machine-readable event log
  (``REPRO_TRACE_FILE``) that downstream analysis -- including this
  repo's own tooling -- can mine the way the paper mines failure logs;
* :func:`write_metrics_json` -- a flat snapshot of the metrics registry
  (``--metrics-out``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterator, Sequence

from .metrics import metrics_snapshot
from .spans import Span


def _fmt_duration(span: Span) -> str:
    if span.duration is None:
        return "(open)"
    return f"{span.duration * 1000.0:.3f}ms" if span.duration < 0.1 else f"{span.duration:.3f}s"


def _fmt_attrs(attrs: dict[str, Any]) -> str:
    if not attrs:
        return ""
    body = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
    return f"  [{body}]"


def render_span_tree(roots: Sequence[Span]) -> str:
    """Indented text tree of a trace, roots and children start-ordered."""
    lines = ["span tree:"]
    if not roots:
        lines.append("  (no spans recorded)")
        return "\n".join(lines)
    for root in sorted(roots, key=lambda s: s.start_perf):
        for span, depth in root.walk():
            mark = "!" if span.status == "error" else "-"
            lines.append(
                f"  {'  ' * depth}{mark} {span.name}  {_fmt_duration(span)}"
                f"{_fmt_attrs(span.attrs)}"
            )
    return "\n".join(lines)


def span_records(roots: Sequence[Span]) -> Iterator[dict[str, Any]]:
    """Flatten a span forest into JSON-ready dicts with id/parent links.

    Ids are depth-first visit order (stable for a given tree), so a
    record's ``parent`` always refers to an earlier line of the JSONL
    stream.
    """
    next_id = 0
    stack: list[tuple[Span, int | None]] = [
        (root, None) for root in sorted(roots, key=lambda s: s.start_perf, reverse=True)
    ]
    while stack:
        span, parent_id = stack.pop()
        span_id = next_id
        next_id += 1
        yield {
            "id": span_id,
            "parent": parent_id,
            "name": span.name,
            "start_unix": span.start_unix,
            "duration_s": span.duration,
            "thread": span.thread,
            "status": span.status,
            "attrs": span.attrs,
        }
        for child in sorted(
            span.children, key=lambda s: s.start_perf, reverse=True
        ):
            stack.append((child, span_id))


def write_spans_jsonl(roots: Sequence[Span], path: Path | str) -> Path:
    """Write one JSON object per span to ``path``; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for record in span_records(roots):
            fh.write(json.dumps(record, default=str) + "\n")
    return path


def read_spans_jsonl(path: Path | str) -> list[dict[str, Any]]:
    """Parse a JSONL trace back into record dicts (tests, tooling)."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def render_metrics(snapshot: dict[str, dict[str, Any]] | None = None) -> str:
    """Human-readable listing of a metrics snapshot (``--trace`` footer)."""
    snap = metrics_snapshot() if snapshot is None else snapshot
    lines = ["metrics:"]
    empty = True
    for section in ("counters", "gauges"):
        for name, value in snap.get(section, {}).items():
            empty = False
            lines.append(f"  {name} = {value:g}")
    for name, summary in snap.get("histograms", {}).items():
        empty = False
        lines.append(
            f"  {name}: n={summary['count']} mean={summary['mean']:.6g} "
            f"min={summary['min']:.6g} max={summary['max']:.6g}"
        )
    if empty:
        lines.append("  (no metrics recorded)")
    return "\n".join(lines)


def write_metrics_json(
    path: Path | str, snapshot: dict[str, dict[str, Any]] | None = None
) -> Path:
    """Write a metrics snapshot as indented JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    snap = metrics_snapshot() if snapshot is None else snapshot
    path.write_text(json.dumps(snap, indent=2, default=str) + "\n")
    return path
