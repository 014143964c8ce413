"""Time primitives shared across the toolkit.

All timestamps in the toolkit are expressed as *fractional days since the
start of the observation period of the system they belong to*.  The LANL
data spans roughly nine years per system; using days keeps every analysis
in the units the paper reports (daily / weekly / monthly probabilities)
and avoids timezone or calendar ambiguity in a simulated archive.

The paper analyses three window lengths -- one day, one week and one
month -- at several spatial granularities.  :class:`Span` captures those
window lengths; :func:`tile_windows` and :func:`count_windows` implement
the non-overlapping tiling used to define the baseline ("random window")
probabilities.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

#: Days per month used throughout, matching the common 30-day convention.
DAYS_PER_MONTH = 30.0
DAYS_PER_WEEK = 7.0
DAYS_PER_YEAR = 365.25


class Span(enum.Enum):
    """A window length used in the paper's conditional-probability analyses."""

    DAY = "day"
    WEEK = "week"
    MONTH = "month"

    @property
    def days(self) -> float:
        """Window length in days."""
        return {"day": 1.0, "week": DAYS_PER_WEEK, "month": DAYS_PER_MONTH}[self.value]

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


ALL_SPANS: tuple[Span, ...] = (Span.DAY, Span.WEEK, Span.MONTH)


class TimeError(ValueError):
    """Raised on invalid time intervals or observation periods."""


@dataclass(frozen=True, slots=True)
class ObservationPeriod:
    """The closed-open interval ``[start, end)`` a system was observed over.

    Attributes:
        start: first observed day (inclusive), in days.
        end: end of observation (exclusive), in days.
    """

    start: float
    end: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.start) and math.isfinite(self.end)):
            raise TimeError("observation period bounds must be finite")
        if self.end <= self.start:
            raise TimeError(
                f"observation period must be non-empty, got [{self.start}, {self.end})"
            )

    @property
    def length(self) -> float:
        """Total observed time in days."""
        return self.end - self.start

    def contains(self, t: float) -> bool:
        """True if timestamp ``t`` falls inside the period."""
        return self.start <= t < self.end


def count_windows(period: ObservationPeriod, span: Span) -> int:
    """Number of complete non-overlapping windows of ``span`` in ``period``.

    Trailing partial windows are discarded so every counted window has the
    full length, keeping baseline probabilities unbiased.  At least one
    window is required; shorter periods raise :class:`TimeError`.
    """
    n = int(math.floor(period.length / span.days))
    if n < 1:
        raise TimeError(
            f"observation period of {period.length:.3f} days is shorter than "
            f"one {span.value} window"
        )
    return n


def tile_windows(period: ObservationPeriod, span: Span) -> Iterator[tuple[float, float]]:
    """Yield the ``[start, end)`` bounds of each complete tiled window."""
    n = count_windows(period, span)
    for i in range(n):
        lo = period.start + i * span.days
        yield (lo, lo + span.days)


def window_index(times: np.ndarray, period: ObservationPeriod, span: Span) -> np.ndarray:
    """Map each timestamp to the index of the tiled window containing it.

    Timestamps falling in the discarded trailing partial window (or outside
    the period) map to ``-1``.

    Args:
        times: array of timestamps in days.
        period: the observation period being tiled.
        span: window length.

    Returns:
        Integer array of window indices, same shape as ``times``.
    """
    n = count_windows(period, span)
    t = np.asarray(times, dtype=float)
    idx = np.floor((t - period.start) / span.days).astype(np.int64)
    bad = (t < period.start) | (idx >= n) | (idx < 0)
    idx[bad] = -1
    return idx


def overlapping_window_starts(
    period: ObservationPeriod, span: Span, step: float
) -> np.ndarray:
    """Start times of overlapping (sliding) windows, used by ablation benches.

    Windows are placed every ``step`` days; only windows fully inside the
    period are returned.
    """
    if step <= 0:
        raise TimeError("step must be positive")
    last_start = period.end - span.days
    if last_start < period.start:
        raise TimeError("period shorter than one window")
    n = int(math.floor((last_start - period.start) / step)) + 1
    return period.start + step * np.arange(n)
