"""Motherboard-sensor temperature series (substitute for system 20's logs).

The paper's Section VIII (and the regressions of Section X) consume
per-node aggregates of periodic ambient-temperature samples: average,
maximum, variance and the count of severe (>40C) warnings.  Crucially,
the paper finds *no* effect of average temperature on failures -- the
harm comes from brief excursions caused by fan/chiller failures.  The
generator therefore:

* gives every node a stable baseline (cooler or warmer spots in the
  hot-aisle/cold-aisle flow) plus a diurnal cycle and sensor noise,
  with **no coupling into the hazard model** (the injected null);
* overlays short excursions around fan failures (node-local) and chiller
  failures (room-wide), whose *hazard* effect is injected via the
  stressor thermal channel, not via the temperature values -- so the
  periodic samples may miss an excursion exactly as the paper notes.
"""

from __future__ import annotations

import math

import numpy as np

from ..records.environment import TemperatureColumns
from ..records.taxonomy import EnvironmentSubtype, HardwareSubtype
from .config import ArchiveConfig, SystemSpec
from .power import StressorEvent


def generate_temperatures(
    spec: SystemSpec,
    config: ArchiveConfig,
    rng: np.random.Generator,
    stressor_events: tuple[StressorEvent, ...],
) -> TemperatureColumns:
    """Generate the periodic sensor samples for one system, as columns
    sorted by ``(time, node_id)`` (each node's sample times are
    distinct, so that is the order the records sort in).

    Args:
        spec: the system (conventionally one with ``has_temperature``).
        config: archive configuration.
        rng: dedicated random stream.
        stressor_events: the system's stressor events; fan and chiller
            failures among them produce temperature excursions.
    """
    effects = config.effects
    n = spec.num_nodes
    duration = config.duration_days
    interval = effects.temp_sample_interval_days

    baselines = rng.normal(
        effects.temp_baseline_mean_c, effects.temp_baseline_spread_c, n
    )
    # Sample times: shared grid with small per-node jitter so samplers
    # do not all hit the same diurnal phase.
    grid = np.arange(0.0, duration, interval)
    jitter = rng.uniform(0.0, interval, n)

    # Excursions: (start, end, peak, node or None for room-wide).
    excursions: list[tuple[float, float, float, int | None]] = []
    for ev in stressor_events:
        if ev.subtype is HardwareSubtype.FAN and ev.node_ids:
            excursions.append(
                (
                    ev.time,
                    ev.time + effects.temp_excursion_days,
                    effects.temp_excursion_c,
                    ev.node_ids[0],
                )
            )
        elif ev.subtype is EnvironmentSubtype.CHILLER:
            excursions.append(
                (
                    ev.time,
                    ev.time + effects.temp_excursion_days,
                    effects.temp_excursion_c * 0.6,
                    None,
                )
            )

    # --- vectorised sample assembly ------------------------------------
    # All nodes share the jittered grid; per-node sample blocks are laid
    # out contiguously (node 0's samples, then node 1's, ...), which (a)
    # consumes the noise stream in exactly the per-node order the old
    # day-loop used, keeping output bit-identical, and (b) keeps each
    # node's times sorted so excursions can be located by searchsorted.
    two_pi = 2.0 * math.pi
    all_times = grid[None, :] + jitter[:, None]  # (n, len(grid))
    keep = all_times < duration
    lengths = keep.sum(axis=1)
    starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=starts[1:])
    flat_times = all_times[keep]
    node_idx = np.repeat(np.arange(n, dtype=np.int64), lengths)

    noise = rng.normal(0.0, effects.temp_noise_c, flat_times.size)
    temps = (
        baselines[node_idx]
        + effects.temp_diurnal_amplitude_c * np.sin(two_pi * flat_times)
        + noise
    )

    def apply_excursion(node: int, start: float, end: float, peak: float):
        b, e = starts[node], starts[node + 1]
        lo = b + np.searchsorted(flat_times[b:e], start, side="left")
        hi = b + np.searchsorted(flat_times[b:e], end, side="left")
        if hi > lo:
            # Linear rise-and-fall peaking mid-excursion.
            rel = (flat_times[lo:hi] - start) / (end - start)
            temps[lo:hi] += peak * (1.0 - np.abs(2.0 * rel - 1.0))

    for start, end, peak, exc_node in excursions:
        if exc_node is not None:
            apply_excursion(exc_node, start, end, peak)
        else:
            for node in range(n):
                apply_excursion(node, start, end, peak)

    np.clip(temps, -50.0, 150.0, out=temps)
    order = np.lexsort((node_idx, flat_times))
    return TemperatureColumns(
        times=flat_times[order],
        node_ids=node_idx[order],
        celsius=temps[order],
    )
