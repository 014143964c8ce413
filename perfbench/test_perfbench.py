"""Tests of the benchmark's own helpers.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from hostspeed import PROBE_REFERENCE_S, at_reference_speed  # noqa: E402
from summary import (  # noqa: E402
    error_rate,
    fold_self_times,
    result_line,
    tail_percentile,
    valid_metric_name,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def span(name, duration, *children, **attrs):
    """A stand-in for ``repro.telemetry.Span``."""
    return SimpleNamespace(
        name=name, duration=duration, children=list(children), attrs=attrs
    )


@pytest.mark.parametrize(
    "name",
    [
        "op_s",
        "report.section.power_s",
        "stream.events.unknown_system",
        "peak-rss",
        "9lives",
        "a" * 64,
    ],
)
def test_valid_metric_names(name):
    assert valid_metric_name(name)


@pytest.mark.parametrize(
    "name", ["", "_op", ".op", "-op", "op s", "op/s", "op{x=1}", "a" * 65, None, 3]
)
def test_invalid_metric_names(name):
    assert not valid_metric_name(name)


def test_declared_names_are_valid_and_used_once():
    names = [
        item["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for item in SPEC[key]
    ]
    assert all(valid_metric_name(name) for name in names)
    assert len(names) == len(set(names))


def test_percentile_needs_ten_samples_beyond_it():
    descending = list(range(100, 0, -1))
    assert tail_percentile(descending, 90) == 90
    assert tail_percentile(descending[1:], 90) is None  # 99 samples: 9 beyond
    assert tail_percentile(list(range(1, 21)), 50) == 10
    assert tail_percentile(list(range(1, 20)), 50) is None
    assert tail_percentile([], 50) is None


@pytest.mark.parametrize("q", [0, 100, -5, 150])
def test_percentile_rejects_out_of_range(q):
    with pytest.raises(ValueError):
        tail_percentile([1.0] * 500, q)


def classify(span):
    if span.name == "report.section":
        return f"section.{span.attrs['section']}"
    layers = {
        "io.load_archive": "records",
        "read": "records",
        "report.run": "run",
        "kernel": "windows",
    }
    return layers.get(span.name)


def test_fold_self_times():
    tree = span(
        "bench.op",
        10.0,
        span("io.load_archive", 3.0, span("read", 1.0)),
        span(
            "report.run",
            6.0,
            span("report.section", 4.0, span("kernel", 1.5), section="power"),
            span("report.section", 1.5, section="nodes"),
        ),
    )
    fold = fold_self_times([tree], classify)
    assert fold.seconds == pytest.approx(
        {
            "records": 3.0,
            "run": 0.5,
            "section.power": 2.5,
            "section.nodes": 1.5,
            "windows": 1.5,
        }
    )
    assert fold.calls == {
        "records": 2,
        "run": 1,
        "section.power": 1,
        "section.nodes": 1,
        "windows": 1,
    }
    assert fold.unattributed == pytest.approx(1.0)
    assert fold.wall == 10.0
    assert fold.coverage() == pytest.approx(0.9)


def test_fold_clamps_children_longer_than_their_parent():
    tree = span("parent", 1.0, span("a", 0.7), span("b", 0.6))
    fold = fold_self_times([tree], lambda s: s.name)
    assert fold.seconds["parent"] == 0.0


def test_fold_of_no_spans():
    fold = fold_self_times([], classify)
    assert fold.seconds == {}
    assert fold.coverage() == 0.0


@pytest.mark.parametrize(
    "attempted, failed, rate", [(3, 0, 0.0), (4, 1, 0.25), (7, 7, 1.0)]
)
def test_error_rate(attempted, failed, rate):
    assert error_rate(attempted, failed) == rate


@pytest.mark.parametrize("attempted, failed", [(0, 0), (3, 4), (3, -1)])
def test_error_rate_rejects_impossible_counts(attempted, failed):
    with pytest.raises(ValueError):
        error_rate(attempted, failed)


def test_at_reference_speed():
    ref = PROBE_REFERENCE_S
    # Probes at half the reference speed: the intervals ran twice as
    # long as on the reference host.
    assert at_reference_speed([3.0], [2 * ref, 2 * ref]) == pytest.approx(1.5)
    assert at_reference_speed([3.0], [ref]) == pytest.approx(3.0)
    # Medians of both: one slow interval and one slow probe move nothing.
    assert at_reference_speed(
        [2.0, 2.0, 9.0], [2 * ref, 2 * ref, 7 * ref]
    ) == pytest.approx(1.0)
    for walls, probes in (([], [ref]), ([1.0], []), ([1.0], [0.0])):
        with pytest.raises(ValueError):
            at_reference_speed(walls, probes)


def test_result_line():
    units = {"op_s": "s", "setup_s": "s"}
    line = result_line(True, 5, 1, {"op_s": 1.25, "setup_s": 3}, units)
    assert json.loads(line) == {
        "correct": True,
        "attempted": 5,
        "failed": 1,
        "metrics": {
            "op_s": {"value": 1.25, "unit": "s"},
            "setup_s": {"value": 3.0, "unit": "s"},
        },
    }
    with pytest.raises(ValueError):
        result_line(True, 5, 0, {"op_s": 1.0}, units)
    with pytest.raises(ValueError):
        result_line(True, 5, 0, {"op_s": float("nan"), "setup_s": 1.0}, units)


def test_traced_run_reports_every_declared_layer_metric():
    layers = importlib.import_module("layers")
    setup, ops = layers.OpTracer(), layers.OpTracer()
    setup.roots.append(span("bench.setup", 2.0, span("simulate.make_archive", 1.5)))
    ops.roots.append(
        span(
            "bench.op",
            1.0,
            span("report.run", 0.9, span("report.section", 0.8, section="power")),
        )
    )
    values, table = layers.attribute(setup, ops, [1.5, 1.25, 1.0], [], [])
    assert set(values) == {metric["name"] for metric in SPEC["per_layer"]}
    assert values["simulate.make_archive_s"] == pytest.approx(1.5)
    assert values["report.section.power_s"] == pytest.approx(0.8)
    assert values["report.run_s"] == pytest.approx(0.1)
    assert values["layer_coverage"] == pytest.approx(0.9)
    assert values["trace_overhead_ratio"] == pytest.approx(1.25)
    assert "report.section.power_s" in table


def test_instrumented_restores_the_originals():
    layers = importlib.import_module("layers")
    targets = [
        (importlib.import_module(module), name)
        for module, name, _ in layers.WRAPPED_FUNCTIONS
    ] + [(cls, name) for cls, name, _ in layers.WRAPPED_METHODS]
    before = [vars(owner)[name] for owner, name in targets]
    with layers.instrumented():
        assert all(
            vars(owner)[name] is not original
            for (owner, name), original in zip(targets, before)
        )
    assert all(
        vars(owner)[name] is original
        for (owner, name), original in zip(targets, before)
    )
