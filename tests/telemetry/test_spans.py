"""Span collection: nesting, error status, no-op fast path."""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.telemetry import NULL_SPAN, Span


class TestDisabled:
    def test_span_is_shared_noop(self):
        assert not telemetry.tracing()
        ctx1 = telemetry.span("a", x=1)
        ctx2 = telemetry.span("b")
        assert ctx1 is ctx2  # one shared null context, no allocation

    def test_noop_span_accepts_attrs(self):
        with telemetry.span("a") as s:
            s.set_attrs(anything=1)
        assert s is NULL_SPAN

    def test_traced_decorator_passthrough(self):
        calls = []

        @telemetry.traced("work")
        def work(x):
            calls.append(x)
            return x * 2

        assert work(3) == 6
        assert calls == [3]


class TestNesting:
    def test_tree_structure(self):
        with telemetry.trace() as tr:
            with telemetry.span("outer", k="v") as outer:
                with telemetry.span("inner.a"):
                    pass
                with telemetry.span("inner.b"):
                    pass
        assert [root.name for root in tr.roots] == ["outer"]
        assert [c.name for c in outer.children] == ["inner.a", "inner.b"]
        assert outer.attrs == {"k": "v"}
        assert outer.status == "ok"
        assert outer.duration is not None
        assert all(c.duration is not None for c in outer.children)
        # children's spans fit inside the parent's window
        for child in outer.children:
            assert child.start_perf >= outer.start_perf
            assert child.duration <= outer.duration

    def test_sibling_roots(self):
        with telemetry.trace() as tr:
            with telemetry.span("first"):
                pass
            with telemetry.span("second"):
                pass
        assert [root.name for root in tr.roots] == ["first", "second"]

    def test_walk_depth_first(self):
        with telemetry.trace() as tr:
            with telemetry.span("a"):
                with telemetry.span("b"):
                    with telemetry.span("c"):
                        pass
        walked = [(s.name, depth) for s, depth in tr.roots[0].walk()]
        assert walked == [("a", 0), ("b", 1), ("c", 2)]

    def test_error_status_and_propagation(self):
        with telemetry.trace() as tr:
            with pytest.raises(ValueError, match="boom"):
                with telemetry.span("explodes"):
                    raise ValueError("boom")
        (root,) = tr.roots
        assert root.status == "error"
        assert root.duration is not None

    def test_traced_decorator_records(self):
        @telemetry.traced()
        def compute():
            return 7

        with telemetry.trace() as tr:
            assert compute() == 7
        assert len(tr.roots) == 1
        assert "compute" in tr.roots[0].name

    def test_scoped_trace_restores_outer(self):
        outer = telemetry.start_trace()
        try:
            with telemetry.trace() as inner:
                with telemetry.span("scoped"):
                    pass
            assert telemetry.current_trace() is outer
            assert [s.name for s in inner.roots] == ["scoped"]
            assert outer.roots == []
        finally:
            telemetry.finish_trace()

    def test_ensure_trace_discards_private_tree(self):
        assert not telemetry.tracing()
        with telemetry.ensure_trace() as tr:
            with telemetry.span("measured") as s:
                pass
        assert isinstance(s, Span)  # real span: duration usable
        assert s.duration is not None
        assert [r.name for r in tr.roots] == ["measured"]
        assert not telemetry.tracing()  # nothing leaked out

    def test_ensure_trace_reuses_active(self):
        with telemetry.trace() as tr:
            with telemetry.ensure_trace() as ensured:
                assert ensured is tr
