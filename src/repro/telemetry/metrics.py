"""A process-wide metrics registry: counters, gauges and histograms.

Pipeline components report coarse-grained measurements here --
analysis-cache hit/miss totals, archive-cache warm/cold loads,
events generated per hazard, window-kernel cell throughput -- and
exporters turn the registry into a flat JSON snapshot
(:func:`MetricsRegistry.snapshot`).

Like tracing, recording is off by default and every mutator starts with
a single module-global check, so instrumented call sites are free when
telemetry is disabled.  All instruments accept keyword *labels*
(``counter_add("archive_cache.loads", 1, result="warm")``); each label
combination is a separate series, rendered as ``name{k=v,...}`` in
snapshots.

The registry takes no lock: nothing in the package records from a
second thread.  Call sites are deliberately coarse (per batched-grid
call, per cache load, per stream micro-batch -- never per event).
"""

from __future__ import annotations

from typing import Any

_enabled: bool = False


def metrics_enabled() -> bool:
    """True when the registry is recording."""
    return _enabled


def enable_metrics() -> None:
    """Start recording into the global registry."""
    global _enabled
    _enabled = True


def disable_metrics() -> None:
    """Stop recording (existing values are kept until :func:`reset_metrics`)."""
    global _enabled
    _enabled = False


def set_metrics_enabled(flag: bool) -> bool:
    """Set the recording flag, returning the previous value."""
    global _enabled
    previous = _enabled
    _enabled = bool(flag)
    return previous


class _Histogram:
    """Streaming summary of observed values (count/sum/min/max)."""

    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def update(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def summary(self) -> dict[str, float]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.total / self.count if self.count else 0.0,
        }


def _series(name: str, labels: dict[str, Any]) -> tuple:
    return (name, tuple(sorted((k, str(v)) for k, v in labels.items())))


def _series_name(key: tuple) -> str:
    name, labels = key
    if not labels:
        return name
    return name + "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"


class MetricsRegistry:
    """Store of counter/gauge/histogram series."""

    def __init__(self) -> None:
        self._counters: dict[tuple, float] = {}
        self._gauges: dict[tuple, float] = {}
        self._histograms: dict[tuple, _Histogram] = {}

    def counter_add(self, name: str, value: float = 1.0, **labels: Any) -> None:
        key = _series(name, labels)
        self._counters[key] = self._counters.get(key, 0) + value

    def gauge_set(self, name: str, value: float, **labels: Any) -> None:
        self._gauges[_series(name, labels)] = value

    def observe(self, name: str, value: float, **labels: Any) -> None:
        key = _series(name, labels)
        hist = self._histograms.get(key)
        if hist is None:
            hist = self._histograms[key] = _Histogram()
        hist.update(value)

    def counter_value(self, name: str, **labels: Any) -> float:
        """Current value of one counter series (0 if never incremented)."""
        return self._counters.get(_series(name, labels), 0)

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """A JSON-ready copy: ``{"counters": ..., "gauges": ..., "histograms": ...}``.

        Series are sorted by rendered name so snapshots diff cleanly.
        """
        return {
            "counters": {
                _series_name(k): v for k, v in sorted(self._counters.items())
            },
            "gauges": {
                _series_name(k): v for k, v in sorted(self._gauges.items())
            },
            "histograms": {
                _series_name(k): h.summary()
                for k, h in sorted(self._histograms.items())
            },
        }

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


#: The process-wide registry all module-level helpers write to.
REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The global :class:`MetricsRegistry`."""
    return REGISTRY


def counter_add(name: str, value: float = 1.0, **labels: Any) -> None:
    """Increment a counter series (no-op unless metrics are enabled)."""
    if not _enabled:
        return
    REGISTRY.counter_add(name, value, **labels)


def gauge_set(name: str, value: float, **labels: Any) -> None:
    """Set a gauge series to ``value`` (no-op unless enabled)."""
    if not _enabled:
        return
    REGISTRY.gauge_set(name, value, **labels)


def observe(name: str, value: float, **labels: Any) -> None:
    """Record one histogram observation (no-op unless enabled)."""
    if not _enabled:
        return
    REGISTRY.observe(name, value, **labels)


def metrics_snapshot() -> dict[str, dict[str, Any]]:
    """Snapshot of the global registry (empty sections when unused)."""
    return REGISTRY.snapshot()


def reset_metrics() -> None:
    """Clear every series in the global registry (tests, benchmarks)."""
    REGISTRY.reset()
