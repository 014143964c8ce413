"""Power- and cooling-related stressor event processes (Section VII/VIII).

Generates the exogenous events whose consequences the paper measures:

* **power outages** -- system-wide, clustered into multi-outage episodes
  (grid instability), hitting a fraction of nodes;
* **power spikes** -- small random node sets, with *delayed* hardware
  consequences ("the effect of power spikes is more apparent at longer
  timespans");
* **UPS failures** -- rack-correlated (a UPS feeds a rack);
* **PSU failures** -- per-node, with chronic per-node weakness (Figure 12
  finds power-supply failures "show only correlations within the same
  node");
* **fan failures** -- per-node thermal excursions (Figure 13);
* **chiller failures** -- room-level thermal excursions.

Each event emits (a) failure rows for the nodes it takes down, (b)
scheduled hazard boosts for the following weeks, and (c) unscheduled-
maintenance rows (Section VII-A.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import repeat

import numpy as np

from ..records.dataset import FailureTable, HardwareGroup
from ..records.failure import MaintenanceTable
from ..records.taxonomy import (
    Category,
    EnvironmentSubtype,
    HardwareSubtype,
    NetworkSubtype,
    Subtype,
    category_of,
)
from ..records.timeutil import DAYS_PER_MONTH, DAYS_PER_YEAR
from .config import ArchiveConfig, EffectSizes, SystemSpec
from .hazards import BoostSchedule, sample_downtime


@dataclass(frozen=True, slots=True)
class StressorEvent:
    """One exogenous stressor occurrence.

    Attributes:
        time: event time (days).
        subtype: which stressor (POWER_OUTAGE/POWER_SPIKE/UPS/CHILLER
            environment subtypes, or POWER_SUPPLY/FAN hardware subtypes).
        node_ids: nodes that record an outage from the event itself.
    """

    time: float
    subtype: Subtype
    node_ids: tuple[int, ...]


@dataclass(frozen=True)
class StressorTraces:
    """Everything the stressor processes contribute to a system; the
    failure and maintenance logs are in record order."""

    events: tuple[StressorEvent, ...]
    failures: FailureTable
    maintenance: MaintenanceTable
    schedule: BoostSchedule


def _emit_event(
    effects: EffectSizes,
    rng: np.random.Generator,
    schedule: BoostSchedule,
    failures: list[tuple],
    maintenance: list[tuple],
    time: float,
    subtype: Subtype,
    down_nodes: np.ndarray,
    boost_nodes: np.ndarray,
    duration_days: float,
) -> StressorEvent:
    """Record one stressor event's boosts, failure rows and maintenance
    rows (tuples of column values, see :func:`rows_table`)."""
    category = category_of(subtype)
    codes = (FailureTable.category_code(category), FailureTable.subtype_code(subtype))
    for node in down_nodes:
        downtime = sample_downtime(category, rng, effects)
        failures.append((time, int(node), *codes, downtime))
    # Hazard boosts on every node the event stresses (a spike defers its
    # hardware effect; everything else acts immediately).
    hw = effects.power_hw_boost.get(subtype, 0.0)
    sw = effects.power_sw_boost.get(subtype, 0.0)
    thermal = 0.0
    if subtype is HardwareSubtype.FAN:
        hw, sw, thermal = 0.0, 0.0, effects.fan_hw_boost
    elif subtype is EnvironmentSubtype.CHILLER:
        hw, sw, thermal = 0.0, 0.0, effects.chiller_hw_boost
    if boost_nodes.size and (hw or sw or thermal):
        delay = (
            int(effects.spike_delay_days)
            if subtype is EnvironmentSubtype.POWER_SPIKE
            else 0
        )
        schedule.add(int(time) + delay, boost_nodes, hw=hw, sw=sw, thermal=thermal)
    # Unscheduled maintenance in the following month (Section VII-A.2).
    prob = effects.maintenance_prob_after.get(subtype, 0.0)
    if prob > 0 and boost_nodes.size:
        hit = boost_nodes[rng.random(boost_nodes.size) < prob]
        for node in hit:
            m_time = time + rng.uniform(0.0, DAYS_PER_MONTH)
            if m_time < duration_days:
                duration = float(rng.lognormal(1.5, 0.8))
                maintenance.append((m_time, int(node), True, duration))
    return StressorEvent(
        time=time, subtype=subtype, node_ids=tuple(int(n) for n in down_nodes)
    )


def _poisson_times(
    rate_per_year: float, duration_days: float, rng: np.random.Generator
) -> np.ndarray:
    n = rng.poisson(rate_per_year * duration_days / DAYS_PER_YEAR)
    return np.sort(rng.uniform(0.0, duration_days, n))


def generate_stressors(
    spec: SystemSpec,
    config: ArchiveConfig,
    rng: np.random.Generator,
    rack_of: np.ndarray | None,
) -> StressorTraces:
    """Generate all stressor events of one system.

    Args:
        spec: the system.
        config: archive configuration.
        rng: dedicated random stream.
        rack_of: node -> rack mapping (None when no layout exists; UPS
            events then hit random node subsets of rack-like size).
    """
    effects = config.effects
    duration = config.duration_days
    n = spec.num_nodes
    # Per-node event exposure must be scale-invariant: a half-sized
    # replica of a system should see the same ENV-record rate per node,
    # or category shares and conditionals drift with the scale factor.
    # Pool-based events (outages, chillers) achieve this by scaling the
    # exposed-pool cap; fixed-footprint events (spikes hit ~4 nodes, UPS
    # failures one rack) by scaling their arrival rates.  Node-level
    # processes (PSU, fan) already scale through the node count itself.
    rate_scale = config.scale
    pool_cap = max(4, round(effects.power_event_pool_cap * rate_scale))
    all_nodes = np.arange(n)
    schedule = BoostSchedule()
    failures: list[tuple] = []
    maintenance: list[tuple] = []
    events: list[StressorEvent] = []

    def emit(time: float, subtype: Subtype, down: np.ndarray, boost: np.ndarray):
        events.append(
            _emit_event(
                effects,
                rng,
                schedule,
                failures,
                maintenance,
                time,
                subtype,
                down,
                boost,
                duration,
            )
        )

    # The pool of nodes exposed to a room-level event (outage episode or
    # chiller failure).  Bounded so big systems do not swamp the ENV
    # breakdown (Figure 9).  Pools are drawn fresh per EPISODE: the
    # outages of one grid-instability episode re-hit the same pool
    # (producing the same-node same-type ENV correlation of Figure 1(b))
    # but no node is chronically outage-prone across the system's life --
    # the paper finds no machine-room-area failure pattern (Section IV-C).
    pool_size = min(n, pool_cap)

    def fresh_pool() -> np.ndarray:
        return rng.choice(n, size=pool_size, replace=False)

    # --- power outages: episodes of 1+ outages spread over a few days ---
    episode_rate = (
        effects.power_outage_rate_per_year / effects.power_outage_episode_mean
    )
    for episode_start in _poisson_times(episode_rate, duration, rng):
        episode_pool = fresh_pool()
        n_outages = int(rng.geometric(1.0 / effects.power_outage_episode_mean))
        offsets = np.sort(
            rng.uniform(0.0, effects.power_outage_episode_span_days, n_outages)
        )
        for off in offsets:
            t = episode_start + off
            if t >= duration:
                continue
            down = episode_pool[
                rng.random(pool_size) < effects.power_outage_node_fraction
            ]
            if down.size == 0:
                down = episode_pool[:1]
            emit(t, EnvironmentSubtype.POWER_OUTAGE, down, down)

    # --- power spikes: small random node sets, delayed HW effect ---------
    for t in _poisson_times(
        effects.power_spike_rate_per_year * rate_scale, duration, rng
    ):
        k = min(n, 1 + rng.poisson(effects.power_spike_nodes_mean))
        nodes = rng.choice(n, size=k, replace=False)
        emit(t, EnvironmentSubtype.POWER_SPIKE, nodes, nodes)

    # --- UPS failures: one rack at a time ---------------------------------
    for t in _poisson_times(
        effects.ups_failure_rate_per_year * rate_scale, duration, rng
    ):
        if rack_of is not None:
            rack = int(rng.integers(0, int(rack_of.max()) + 1))
            nodes = all_nodes[rack_of == rack]
        else:
            k = min(n, 5)
            nodes = rng.choice(n, size=k, replace=False)
        if nodes.size == 0:
            continue
        emit(t, EnvironmentSubtype.UPS, nodes, nodes)

    # --- PSU failures: per-node, chronically weak PSUs repeat -------------
    base = effects.base_daily_hazard(spec.group)
    psu_share = effects.category_mix[Category.HARDWARE] * effects.hw_subtype_mix[
        HardwareSubtype.POWER_SUPPLY
    ]
    weakness = rng.lognormal(0.0, effects.psu_weakness_sigma, n)
    weakness /= math.exp(effects.psu_weakness_sigma**2 / 2.0)  # mean 1
    psu_rates = base * psu_share * weakness
    psu_counts = rng.poisson(psu_rates * duration)
    for node in np.nonzero(psu_counts)[0]:
        for t in np.sort(rng.uniform(0.0, duration, psu_counts[node])):
            node_arr = np.array([node])
            emit(float(t), HardwareSubtype.POWER_SUPPLY, node_arr, node_arr)

    # --- fan failures: per-node thermal excursions ------------------------
    fan_share = effects.category_mix[Category.HARDWARE] * effects.hw_subtype_mix[
        HardwareSubtype.FAN
    ]
    fan_counts = rng.poisson(base * fan_share * duration, size=n)
    for node in np.nonzero(fan_counts)[0]:
        for t in np.sort(rng.uniform(0.0, duration, fan_counts[node])):
            node_arr = np.array([node])
            emit(float(t), HardwareSubtype.FAN, node_arr, node_arr)

    # --- network fabric episodes: group-2 NUMA interconnect instability ---
    # A flaky switch/fabric produces NET failures across nodes over a few
    # days: the paper's dominant *system-level* correlation carrier for
    # group-2 (Figure 3, network 3.69X).  No hazard boosts -- the episode
    # clustering itself is the injected correlation.
    if spec.group is HardwareGroup.GROUP2:
        net_episode_rate = (
            effects.net_episode_rate_per_year_g2
            / effects.net_episode_events_mean
        )
        for episode_start in _poisson_times(net_episode_rate, duration, rng):
            n_events = int(
                rng.geometric(1.0 / effects.net_episode_events_mean)
            )
            for off in np.sort(
                rng.uniform(0.0, effects.net_episode_span_days, n_events)
            ):
                t = episode_start + off
                if t >= duration:
                    continue
                k = min(n, effects.net_episode_nodes_per_event)
                nodes = rng.choice(n, size=k, replace=False)
                emit(float(t), NetworkSubtype.SWITCH, nodes, np.array([], dtype=np.int64))

    # --- chiller failures: room-level thermal excursions ------------------
    for t in _poisson_times(
        effects.chiller_failure_rate_per_year, duration, rng
    ):
        pool = fresh_pool()
        down = pool[rng.random(pool_size) < effects.chiller_node_fraction]
        if down.size == 0:
            down = pool[:1]
        emit(t, EnvironmentSubtype.CHILLER, down, down)

    events.sort(key=lambda e: e.time)
    return StressorTraces(
        events=tuple(events),
        failures=rows_table(FailureTable, failures),
        maintenance=rows_table(MaintenanceTable, maintenance),
        schedule=schedule,
    )


def rows_table(cls, rows: list[tuple]):
    """The column log ``cls`` (a failure or maintenance table) of
    ``rows``, each a tuple of one row's column values, in record order."""
    empty = cls.from_records(())
    columns = zip(*rows) if rows else repeat(())
    return cls(
        *(np.array(c, getattr(empty, f.name).dtype) for f, c in zip(fields(cls), columns))
    ).in_record_order()
