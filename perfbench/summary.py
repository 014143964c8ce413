"""Pure helpers of the benchmark: metric names, percentiles, error rate,
self-time folding and the result line.

Nothing here imports the program under test, so the untraced run, the
traced run and the helper tests all share these functions.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

#: Metric names: a letter or digit, then letters, digits, ``_``, ``.``
#: and ``-``; 64 characters at most.
_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: A percentile is reported only when at least this many samples lie
#: beyond it.
MIN_TAIL_SAMPLES = 10


def valid_metric_name(name: object) -> bool:
    """True when ``name`` is a usable metric name."""
    return isinstance(name, str) and _NAME_RE.fullmatch(name) is not None


def tail_percentile(samples: Sequence[float], q: float) -> float | None:
    """Nearest-rank ``q``-th percentile, or ``None`` when the tail is thin.

    The value is the ``ceil(q/100 * n)``-th smallest sample; it is
    returned only when at least ``MIN_TAIL_SAMPLES`` samples lie beyond
    that rank, so a p90 needs 100 samples and a p50 needs 20.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    n = len(samples)
    rank = math.ceil(q / 100.0 * n)
    if n == 0 or n - rank < MIN_TAIL_SAMPLES:
        return None
    return sorted(samples)[rank - 1]


def error_rate(attempted: int, failed: int) -> float:
    """Failed operations over attempted ones."""
    if attempted < 1:
        raise ValueError(f"attempted must be >= 1, got {attempted}")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed must be in [0, {attempted}], got {failed}")
    return failed / attempted


@dataclass
class LayerFold:
    """Self time per layer over a span forest.

    Attributes:
        seconds: self time summed per layer.
        calls: spans folded into each layer.
        unattributed: self time of spans no layer claims.
        wall: summed duration of the roots.
    """

    seconds: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    unattributed: float = 0.0
    wall: float = 0.0

    def coverage(self) -> float:
        """Share of the roots' wall time the layers account for."""
        if self.wall <= 0.0:
            return 0.0
        return 1.0 - self.unattributed / self.wall


def fold_self_times(roots: Iterable, classify: Callable) -> LayerFold:
    """Fold a span forest into per-layer self times.

    Spans need ``name``, ``attrs``, ``duration`` and ``children``, as
    :class:`repro.telemetry.Span` has.  A span's self time is its
    duration minus its children's durations (children run on the same
    thread, inside the parent).  ``classify(span)`` names the layer a
    span belongs to, or returns ``None`` to leave its self time
    unattributed.
    """
    fold = LayerFold()
    stack = list(roots)
    fold.wall = sum(root.duration or 0.0 for root in stack)
    while stack:
        span = stack.pop()
        children = list(span.children)
        own = max(
            (span.duration or 0.0)
            - sum(child.duration or 0.0 for child in children),
            0.0,
        )
        layer = classify(span)
        if layer is None:
            fold.unattributed += own
        else:
            fold.seconds[layer] = fold.seconds.get(layer, 0.0) + own
            fold.calls[layer] = fold.calls.get(layer, 0) + 1
        stack.extend(children)
    return fold


def result_line(
    correct: bool,
    attempted: int,
    failed: int,
    values: Mapping[str, float],
    units: Mapping[str, str],
) -> str:
    """The benchmark's last output line: one JSON object.

    ``values`` must hold exactly the metrics named in ``units``, each a
    finite number under a valid name.
    """
    if set(values) != set(units):
        missing = sorted(set(units) - set(values))
        extra = sorted(set(values) - set(units))
        raise ValueError(f"metrics missing {missing}, unexpected {extra}")
    error_rate(attempted, failed)  # validates the counts
    metrics = {}
    for name, unit in units.items():
        value = float(values[name])
        if not valid_metric_name(name):
            raise ValueError(f"invalid metric name {name!r}")
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        metrics[name] = {"value": value, "unit": unit}
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": metrics,
        }
    )
