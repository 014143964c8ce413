"""Structured tracing: nested wall-clock spans collected into a tree.

A :class:`Span` records one timed operation (name, attributes, start
time, duration, owning thread); spans opened inside another span become
its children, so a traced run yields a tree mirroring the pipeline's
call structure -- generation, archive-cache loads, report sections.

Design constraints, in order:

1. **Zero overhead when disabled.**  :func:`span` checks one module
   global and returns a shared no-op context manager when no trace is
   active; instrumented call sites never allocate in that case.
2. **Nesting without bookkeeping at call sites.**  The "current span"
   lives in a :mod:`contextvars` variable, so a span finds its parent
   itself.  Collection takes no lock: nothing in the package opens
   spans from a second thread.  Each span still records the name of
   its thread, a field of the JSONL trace format.

Collection is explicit: activate a trace with :func:`start_trace` /
:func:`trace` (or ``REPRO_TELEMETRY=trace`` via
:func:`~repro.telemetry.configure_from_env`), then read
``Trace.roots`` or :func:`finish_trace` and hand the spans to
:mod:`repro.telemetry.export`.
"""

from __future__ import annotations

import contextvars
import functools
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, TypeVar

F = TypeVar("F", bound=Callable)


class Span:
    """One timed operation in a trace tree.

    Attributes:
        name: dotted operation name, e.g. ``"report.section"``.
        attrs: free-form attributes (``section="power"``); values should
            be JSON-friendly scalars.
        start_unix: wall-clock start (``time.time()``), for log
            correlation across processes.
        start_perf: monotonic start (``time.perf_counter()``), the
            ordering/duration clock.
        duration: seconds from enter to exit; ``None`` while open.
        children: spans opened while this one was current, in start
            order.
        thread: name of the thread that opened the span.
        status: ``"open"``, ``"ok"`` or ``"error"`` (exited via an
            exception).
    """

    __slots__ = (
        "name",
        "attrs",
        "start_unix",
        "start_perf",
        "duration",
        "children",
        "thread",
        "status",
    )

    def __init__(self, name: str, attrs: dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self.start_unix = time.time()
        self.start_perf = time.perf_counter()
        self.duration: float | None = None
        self.children: list[Span] = []
        self.thread = threading.current_thread().name
        self.status = "open"

    def set_attrs(self, **attrs: Any) -> None:
        """Attach (or overwrite) attributes; usable after the span ends."""
        self.attrs.update(attrs)

    def finish(self, error: bool = False) -> None:
        self.duration = time.perf_counter() - self.start_perf
        self.status = "error" if error else "ok"

    def walk(self, depth: int = 0) -> Iterator[tuple["Span", int]]:
        """Depth-first ``(span, depth)`` pairs, children start-ordered."""
        yield self, depth
        for child in sorted(self.children, key=lambda s: s.start_perf):
            yield from child.walk(depth + 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dur = f"{self.duration:.6f}s" if self.duration is not None else "open"
        return f"Span({self.name!r}, {dur}, children={len(self.children)})"


class Trace:
    """A collection of root spans (one traced run)."""

    def __init__(self, name: str = "run") -> None:
        self.name = name
        self.roots: list[Span] = []

    def _attach(self, parent: Span | None, span: Span) -> None:
        (self.roots if parent is None else parent.children).append(span)


class _NullSpan:
    """The span handed out when tracing is off: every operation no-ops."""

    __slots__ = ()
    name = "noop"
    attrs: dict[str, Any] = {}
    duration = 0.0
    children: tuple = ()
    status = "ok"

    def set_attrs(self, **attrs: Any) -> None:
        pass


class _NullSpanContext:
    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return NULL_SPAN

    def __exit__(self, *exc: object) -> bool:
        return False


NULL_SPAN = _NullSpan()
_NULL_CTX = _NullSpanContext()

#: The active trace; ``None`` means tracing is fully disabled (the
#: :func:`span` fast path is one global read + comparison).
_trace: Trace | None = None

_current: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
    "repro_telemetry_span", default=None
)


class _SpanContext:
    """Context manager recording one :class:`Span` into the active trace."""

    __slots__ = ("_name", "_attrs", "_span", "_token", "_trace")

    def __init__(self, name: str, attrs: dict[str, Any]) -> None:
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> Span | _NullSpan:
        tr = _trace
        if tr is None:  # trace ended between construction and entry
            self._span = None
            return NULL_SPAN
        s = Span(self._name, self._attrs)
        self._span = s
        self._trace = tr
        tr._attach(_current.get(), s)
        self._token = _current.set(s)
        return s

    def __exit__(self, exc_type, exc, tb) -> bool:
        s = self._span
        if s is not None:
            _current.reset(self._token)
            s.finish(error=exc_type is not None)
        return False


def span(name: str, **attrs: Any) -> _SpanContext | _NullSpanContext:
    """Open a span around a ``with`` block.

    Returns a shared no-op context manager when no trace is active, so
    instrumenting a call site costs one global check when telemetry is
    off.  Attributes must be JSON-friendly scalars (they end up in the
    JSONL export verbatim).
    """
    if _trace is None:
        return _NULL_CTX
    return _SpanContext(name, attrs)


def traced(name: str | None = None, **attrs: Any) -> Callable[[F], F]:
    """Decorator form of :func:`span`; checks enablement per *call*.

    ``@traced("simulate.system")`` (or bare ``@traced()``, which uses
    the function's qualified name) wraps the function in a span only
    when a trace is active at call time -- decorating at import time
    never freezes the disabled state in.
    """

    def decorate(fn: F) -> F:
        label = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if _trace is None:
                return fn(*args, **kwargs)
            with span(label, **attrs):
                return fn(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    return decorate


def tracing() -> bool:
    """True when a trace is active (spans are being collected)."""
    return _trace is not None


def current_trace() -> Trace | None:
    """The active :class:`Trace`, if any."""
    return _trace


def start_trace(name: str = "run") -> Trace:
    """Activate a new trace (replacing any active one) and return it."""
    global _trace
    _trace = Trace(name)
    return _trace


def finish_trace() -> list[Span]:
    """Deactivate tracing and return the collected root spans."""
    global _trace
    tr = _trace
    _trace = None
    return tr.roots if tr is not None else []


def _swap_trace(tr: Trace | None) -> Trace | None:
    """Install ``tr`` as the active trace, returning the previous one."""
    global _trace
    previous = _trace
    _trace = tr
    return previous


@contextmanager
def trace(name: str = "run") -> Iterator[Trace]:
    """Collect spans into a fresh trace for the duration of the block.

    The previous trace (if any) is restored on exit, so scoped traces
    -- a benchmark timing one report, a test asserting on one tree --
    compose with the global ``REPRO_TELEMETRY`` switch.
    """
    previous = _swap_trace(Trace(name))
    try:
        yield _trace  # type: ignore[misc]
    finally:
        _swap_trace(previous)


@contextmanager
def ensure_trace() -> Iterator[Trace]:
    """The active trace, or a private throwaway one.

    Used by code that reads its own span durations (the report
    profiler): inside the block spans are always real, but when no
    outer trace was active the collected tree is discarded on exit
    instead of being exported.
    """
    if _trace is not None:
        yield _trace
    else:
        with trace("local") as tr:
            yield tr
