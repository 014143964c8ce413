"""Environmental measurement record types.

Two kinds of environmental time series feed the paper's analyses:

* **Temperature readings** (Section VIII, X): periodic motherboard-sensor
  samples, available for LANL system 20.  Per-node aggregates (average,
  maximum, variance, number of severe high-temperature warnings) become
  regression inputs in Table I.
* **Neutron counts** (Section IX): 1-minute-resolution counts from the
  Climax, Colorado neutron-monitor station, aggregated to monthly average
  counts-per-minute for Figure 14.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .timeutil import ObservationPeriod, Span, count_windows, window_index
from .usage import check_rows, sorted_rows


class EnvironmentRecordError(ValueError):
    """Raised when an environmental record is invalid."""


#: The severe-temperature threshold used for the ``num_hightemp`` regression
#: variable in Table I: a reading above 40 degrees Celsius counts as a severe
#: temperature warning.
HIGH_TEMP_THRESHOLD_C = 40.0

#: The plausible sensor range; readings outside it are rejected.
CELSIUS_MIN = -50.0
CELSIUS_MAX = 150.0


@dataclass(frozen=True, slots=True, order=True)
class TemperatureReading:
    """One motherboard-sensor temperature sample.

    Attributes:
        time: sample time in days since observation start.
        system_id: system the node belongs to.
        node_id: the sampled node.
        celsius: ambient temperature reported by the sensor.
    """

    time: float
    system_id: int
    node_id: int
    celsius: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.time):
            raise EnvironmentRecordError(f"non-finite time {self.time!r}")
        if self.time < 0:
            raise EnvironmentRecordError(f"time must be >= 0, got {self.time}")
        if self.node_id < 0:
            raise EnvironmentRecordError(f"node_id must be >= 0, got {self.node_id}")
        if not math.isfinite(self.celsius):
            raise EnvironmentRecordError(f"non-finite temperature {self.celsius!r}")
        if not (CELSIUS_MIN <= self.celsius <= CELSIUS_MAX):
            raise EnvironmentRecordError(
                f"temperature {self.celsius} C outside plausible sensor range"
            )


@dataclass(frozen=True)
class TemperatureColumns:
    """A temperature log as parallel numpy columns (one row per sample).

    The columnar twin of a ``list[TemperatureReading]``, and the form
    :func:`summarize_temperatures` takes.
    """

    times: np.ndarray
    node_ids: np.ndarray
    celsius: np.ndarray

    def __len__(self) -> int:
        return int(self.times.size)

    @classmethod
    def from_records(
        cls, readings: Sequence[TemperatureReading]
    ) -> "TemperatureColumns":
        """Build columns from record objects, preserving sample order."""
        n = len(readings)
        return cls(
            times=np.fromiter((r.time for r in readings), float, n),
            node_ids=np.fromiter((r.node_id for r in readings), np.int64, n),
            celsius=np.fromiter((r.celsius for r in readings), float, n),
        )

    def invalid_rows(self) -> np.ndarray:
        """Mask of the samples :class:`TemperatureReading` would reject:
        every ``__post_init__`` check, evaluated on the columns."""
        t, c = self.times, self.celsius
        bad = ~np.isfinite(t) | (t < 0) | (self.node_ids < 0)
        bad |= ~(np.isfinite(c) & (c >= CELSIUS_MIN) & (c <= CELSIUS_MAX))
        return bad

    def check(self) -> None:
        """Raise :class:`EnvironmentRecordError` if a sample breaks a
        :class:`TemperatureReading` invariant."""
        check_rows(self, EnvironmentRecordError, "temperature samples")

    def in_record_order(self) -> "TemperatureColumns":
        """These samples in the order their records sort in: a log belongs
        to one system, so by ``(time, node_id, celsius)``."""
        return sorted_rows(self, self.times, self.node_ids, self.celsius)


@dataclass(frozen=True, slots=True)
class NodeTemperatureSummary:
    """Per-node aggregate of temperature readings (Table I variables).

    Attributes:
        node_id: the node.
        avg_temp: mean of all readings (``avg_temp`` in Table I).
        max_temp: maximum reading (``max_temp``).
        temp_var: population variance of readings (``temp_var``).
        num_hightemp: number of severe warnings, i.e. readings above
            40 C (``num_hightemp``).
        num_readings: total number of samples the aggregate is based on.
    """

    node_id: int
    avg_temp: float
    max_temp: float
    temp_var: float
    num_hightemp: int
    num_readings: int


def summarize_temperatures(
    temps: TemperatureColumns, num_nodes: int
) -> list[NodeTemperatureSummary]:
    """Aggregate raw readings into per-node Table-I temperature variables.

    Each node's samples are aggregated in log order (a stable sort by
    node).  Nodes with no readings get NaN aggregates and zero counts;
    regression code drops or imputes them explicitly rather than
    silently.
    """
    if num_nodes < 1:
        raise EnvironmentRecordError(f"num_nodes must be >= 1, got {num_nodes}")
    nodes = temps.node_ids
    if nodes.size and int(nodes.max()) >= num_nodes:
        bad = int(nodes[np.argmax(nodes >= num_nodes)])
        raise EnvironmentRecordError(
            f"reading references node {bad} but the system has "
            f"only {num_nodes} nodes"
        )
    order = np.argsort(nodes, kind="stable")
    values = temps.celsius[order]
    bounds = np.searchsorted(nodes[order], np.arange(num_nodes + 1))
    out = []
    for node in range(num_nodes):
        vals = values[bounds[node] : bounds[node + 1]]
        if vals.size == 0:
            out.append(
                NodeTemperatureSummary(
                    node_id=node,
                    avg_temp=float("nan"),
                    max_temp=float("nan"),
                    temp_var=float("nan"),
                    num_hightemp=0,
                    num_readings=0,
                )
            )
            continue
        out.append(
            NodeTemperatureSummary(
                node_id=node,
                avg_temp=float(vals.mean()),
                max_temp=float(vals.max()),
                temp_var=float(vals.var()),
                num_hightemp=int((vals > HIGH_TEMP_THRESHOLD_C).sum()),
                num_readings=int(vals.size),
            )
        )
    return out


@dataclass(frozen=True, slots=True, order=True)
class NeutronReading:
    """One neutron-monitor sample (counts per minute).

    Attributes:
        time: sample time in days since observation start.
        counts_per_minute: high-energy neutron counts per minute at the
            monitor station.
    """

    time: float
    counts_per_minute: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.time):
            raise EnvironmentRecordError(f"non-finite time {self.time!r}")
        if self.time < 0:
            raise EnvironmentRecordError(f"time must be >= 0, got {self.time}")
        if not math.isfinite(self.counts_per_minute) or self.counts_per_minute < 0:
            raise EnvironmentRecordError(
                f"counts_per_minute must be finite and >= 0, got "
                f"{self.counts_per_minute!r}"
            )


@dataclass(frozen=True, eq=False)
class NeutronSeries:
    """The neutron monitor series as numpy columns, one row per sample:
    ``times`` (days) and ``counts_per_minute``, both float64.

    The columnar twin of a ``list[NeutronReading]``.
    """

    times: np.ndarray
    counts_per_minute: np.ndarray

    def __len__(self) -> int:
        return int(self.times.size)

    @classmethod
    def from_records(cls, readings: Sequence[NeutronReading]) -> "NeutronSeries":
        """The columns of ``readings``, in record order."""
        n = len(readings)
        return cls(
            times=np.fromiter((r.time for r in readings), float, n),
            counts_per_minute=np.fromiter(
                (r.counts_per_minute for r in readings), float, n
            ),
        ).in_record_order()

    def invalid_rows(self) -> np.ndarray:
        """Mask of the samples :class:`NeutronReading` would reject:
        every ``__post_init__`` check, evaluated on the columns."""
        t, c = self.times, self.counts_per_minute
        return ~(np.isfinite(t) & (t >= 0) & np.isfinite(c) & (c >= 0))

    def check(self) -> None:
        """Raise :class:`EnvironmentRecordError` if a sample breaks a
        :class:`NeutronReading` invariant."""
        check_rows(self, EnvironmentRecordError, "neutron samples")

    def in_record_order(self) -> "NeutronSeries":
        """These samples in the order their records sort in: by
        ``(time, counts_per_minute)``."""
        return sorted_rows(self, self.times, self.counts_per_minute)


def monthly_means(
    times: np.ndarray, values: np.ndarray, period: ObservationPeriod
) -> np.ndarray:
    """Mean of ``values`` per tiled month of ``period`` (NaN where a
    month holds no sample), binned by ``times``.

    Over the :class:`NeutronSeries` columns this is the monthly average
    counts-per-minute, the x-axis of Figure 14.
    """
    n_months = count_windows(period, Span.MONTH)
    if not times.size:
        return np.full(n_months, np.nan)
    idx = window_index(times, period, Span.MONTH)
    valid = idx >= 0
    # ``bincount`` adds each month's values in row order.  ``np.add.at``
    # would too, but numpy 2 takes a slow path in it for the unpickled
    # columns of a cached archive (their dtype is not numpy's own float64
    # instance).
    sums = np.bincount(idx[valid], weights=values[valid], minlength=n_months)
    nums = np.bincount(idx[valid], minlength=n_months)
    with np.errstate(invalid="ignore", divide="ignore"):
        means = sums / nums
    means[nums == 0] = np.nan
    return means
