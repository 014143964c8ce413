"""Timings scaled to a reference host speed.

The 2-CPU virtual machines this benchmark was built on change speed by
up to about 1.8x, each speed held from a fraction of a second to many
minutes: a fixed loop ran 1.0x to 1.8x its fastest time from one 25 ms
sample to the next, and a whole ten-run set ran up to 2x slower than
the set after it.  CPU time moves with wall time, so it is no steadier.

So every timed interval of the untraced run is bracketed by probes, a
fixed piece of work timed ``PROBES_PER_SIDE`` times just before and
just after it, and a run's intervals are reported at reference speed::

    median(walls) * PROBE_REFERENCE_S / median(probes)

That is the median interval as it would have run on a host where the
probe takes ``PROBE_REFERENCE_S``.  Medians, because a single probe is
short and now and then lands in a brief slow spell the interval around
it barely felt.  The probe mixes the two kinds of work the program
does: a pure-Python loop and a NumPy pass over an array larger than
the CPU caches.  It lives here, outside the program, so no change to
the program moves it.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Sequence, TypeVar

import numpy as np

T = TypeVar("T")

#: Iterations of the probe's pure-Python loop.
PROBE_LOOP = 200_000
#: Elements of the probe's NumPy array (16 MB of float64).
PROBE_ARRAY = 2_000_000
#: Probes taken before, and again after, every timed interval.
PROBES_PER_SIDE = 3
#: A fast time of the probe on the reference host (2-vCPU Intel Xeon VM
#: at 2.1 GHz, CPython 3.11, NumPy 2.4).  It only sets the scale: on a
#: host that is faster still, scaled times read above wall times.
PROBE_REFERENCE_S = 0.025


def probe() -> float:
    """Seconds the fixed probe work takes now."""
    started = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOP):
        total += i * i % 7
    array = np.empty(PROBE_ARRAY)
    array.fill(1.0)
    float((array * 2.0).sum())
    return time.perf_counter() - started


def at_reference_speed(walls: Sequence[float], probes: Sequence[float]) -> float:
    """The median of ``walls`` scaled by the median of the ``probes``
    taken around them."""
    if not walls or not probes:
        raise ValueError("needs at least one wall time and one probe")
    probe_s = statistics.median(probes)
    if probe_s <= 0.0:
        raise ValueError(f"probe times must be positive, median {probe_s}")
    return statistics.median(walls) * PROBE_REFERENCE_S / probe_s


def timed(work: Callable[[], T], probes: list[float]) -> tuple[T, float]:
    """Run ``work`` between probes appended to ``probes``; return its
    result and wall time."""
    probes.extend(probe() for _ in range(PROBES_PER_SIDE))
    started = time.perf_counter()
    result = work()
    wall = time.perf_counter() - started
    probes.extend(probe() for _ in range(PROBES_PER_SIDE))
    return result, wall
