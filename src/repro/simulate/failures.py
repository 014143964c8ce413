"""The day-stepped failure process: the heart of the generator.

For each simulated day the process assembles, per node and per category,
an additive daily hazard from four sources:

1. **organic** -- the node's base rate (hardware-group baseline x
   per-node heterogeneity x node-0 multipliers x usage multiplier x
   neutron-flux coupling for the CPU share);
2. **cascade** -- decaying boosts left by earlier failures on the same
   node, rack and system (Section III correlations);
3. **power stressors** -- decaying HW/SW boosts from power events
   (Section VII);
4. **thermal stressors** -- fast-decaying HW boosts from fan/chiller
   events (Section VIII).

Failure counts are Poisson draws per (node, category); each failure gets
a root-cause subtype drawn from a *source-conditioned* mix: a hardware
failure sampled while power boosts dominate the node's hazard draws its
component from the power-conditioned mix (node boards, PSUs, memory --
not CPUs), reproducing Figures 10/11/13 (right).  Organic hardware
failures repeat the node's previous component with probability
``hw_subtype_repeat_prob``, modelling hard (not cosmic-ray) errors.

Vectorisation (generator v2)
----------------------------
The engine exploits the exact Poisson decomposition: instead of drawing
an independent Poisson count for every ``(node, category)`` cell every
day, it draws one scalar ``K ~ Poisson(sum of all cell hazards)`` and,
when ``K > 0``, assigns the K failures to cells categorically with
probabilities proportional to the cell hazards.  The two processes have
identical distributions, but the scalar draw turns the per-day cost from
``O(N x 6)`` random variates into ``O(1)`` on the (majority of) days
with no failures.  Failure timestamps, subtype-mix draws and repair
times are drawn in batches.  The *distribution* of archives is unchanged
from v1, but the exact stream consumption differs, so a given seed
produces a different (equally valid) realisation; ``GENERATOR_VERSION``
records this and is mixed into archive cache keys.

The fused day step
------------------
Most systems see no failure on most days, so the cost of a day is the
number of numpy calls it makes, not their size.  A day makes at most
five on its ``(N, 6)`` hazard, ``lam``, after the three decays:

* ``lam = base[d] + cascade``, where the block of at most
  ``_BLOCK_DAYS`` days of ``base = node_cat * infant[d]``, with the
  hardware column then ``*= hw_flux_factor[d]``, is computed at once;
* ``lam *= usage[d]``, a float64 ``(N, 6)`` copy of the day's float32
  usage multiplier whose environment column is 1.0, so environment
  hazards skip the multiplier without being saved and restored;
* ``lam += stressors.slow`` and ``lam += stressors.fast`` (see
  :class:`~repro.simulate.hazards.StressorState`);
* ``lam.sum()``, the Poisson total.

Each element of ``lam`` goes through the same IEEE operations, in the
same order, as the per-column step it replaced: the same two roundings
of the base, ``x * 1.0 == x`` and ``x + 0.0 == x`` where a column is
skipped, and ``(x + hw) + thermal`` on the hardware column.  ``lam`` is
a C-contiguous ``(N, 6)`` array, so its sum is the same pairwise sum and
every random draw sees the same argument.  A seed therefore yields the
same archive, bit for bit; ``tests/simulate/reference_failures.py``
keeps the old step as an oracle.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Iterator

import numpy as np

from ..records.dataset import FailureTable, HardwareGroup
from ..records.taxonomy import (
    Category,
    EnvironmentSubtype,
    HardwareSubtype,
    SoftwareSubtype,
    Subtype,
)
from .config import (
    ArchiveConfig,
    CATEGORY_INDEX,
    CATEGORY_ORDER,
    EffectSizes,
    N_CATEGORIES,
    SystemSpec,
)
from .hazards import CascadeState, StressorState
from .power import StressorTraces
from .usage import UsageTraces

#: Bumped whenever the generator's seeded-RNG consumption changes, so a
#: seed maps to a stable realisation *per version* and on-disk archive
#: caches never serve output from a different generator.
GENERATOR_VERSION = 2

_HW = CATEGORY_INDEX[Category.HARDWARE]
_SW = CATEGORY_INDEX[Category.SOFTWARE]
_ENV = CATEGORY_INDEX[Category.ENVIRONMENT]
_NET = CATEGORY_INDEX[Category.NETWORK]

#: Hardware subtypes generated as dedicated stressor processes rather
#: than organic draws (see :mod:`repro.simulate.power`).
_EVENT_DRIVEN_HW = (HardwareSubtype.POWER_SUPPLY, HardwareSubtype.FAN)

#: The failure table's code of each ``CATEGORY_ORDER`` index, and back.
_TABLE_CODE = np.array([FailureTable.category_code(c) for c in CATEGORY_ORDER])
_ORDER_INDEX = [CATEGORY_INDEX[c] for c in FailureTable.CATEGORIES]

#: Days of base hazard computed at once.  A block holds ``(days, N, 6)``
#: floats: about 2 MB at 358 nodes, where the whole period would be 44 MB.
_BLOCK_DAYS = 128


def _organic_hw_mix(effects: EffectSizes) -> tuple[list[HardwareSubtype], np.ndarray]:
    """Organic hardware subtype mix, with event-driven subtypes removed."""
    subs = [s for s in effects.hw_subtype_mix if s not in _EVENT_DRIVEN_HW]
    weights = np.array([effects.hw_subtype_mix[s] for s in subs])
    return subs, weights / weights.sum()


def _mix_arrays(mix: dict) -> tuple[list, np.ndarray]:
    subs = list(mix)
    weights = np.array([mix[s] for s in subs], dtype=float)
    return subs, weights / weights.sum()


class _MixSampler:
    """Cheap categorical sampler: cumulative weights + bisection.

    ``numpy.random.Generator.choice`` re-normalises and re-cumsums its
    probability vector on every call, which dominated the per-failure
    cost of the v1 engine; this pre-computes the CDF once, as a list:
    ``bisect_right`` on it finds what ``np.searchsorted(..., side="right")``
    finds, without a numpy call per draw.
    """

    __slots__ = ("subs", "cdf")

    def __init__(self, subs: list, weights: np.ndarray) -> None:
        self.subs = subs
        cdf = np.cumsum(weights)
        cdf[-1] = 1.0  # guard against round-off at the top end
        self.cdf = cdf.tolist()

    def draw(self, rng: np.random.Generator):
        i = bisect_right(self.cdf, rng.random())
        return self.subs[min(i, len(self.subs) - 1)]


def _usage_multiplier(
    usage: UsageTraces | None, effects: EffectSizes, n_days: int, n_nodes: int
) -> np.ndarray:
    """Per-(day, node) hazard multiplier from the usage trace.

    Log-linear (exponential) form, matching the log link of the paper's
    Table II/III regressions: the injected coefficients then appear
    (scaled by observation length) as the fitted GLM coefficients.  The
    exponent is clipped so a pathological day cannot explode the hazard.
    """
    if usage is None:
        return np.ones((n_days, n_nodes), dtype=np.float32)
    risk_term = effects.user_risk_coef * np.maximum(usage.user_risk - 1.0, 0.0)
    exponent = (
        effects.jobs_hazard_coef * usage.jobs_started
        + effects.util_hazard_coef * usage.busy_fraction
        + risk_term
    )
    return np.exp(np.clip(exponent, -2.5, 1.5)).astype(np.float32)


def _day_blocks(
    node_cat: np.ndarray,
    infant: np.ndarray,
    hw_flux_factor: np.ndarray,
    usage_mult: np.ndarray | None,
) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
    """The base hazard and usage multiplier of each day, in ``(days, N,
    6)`` blocks of at most ``_BLOCK_DAYS`` days (see the module notes)."""
    n_days = infant.size
    last = hw_flux_factor.size - 1
    for d0 in range(0, n_days, _BLOCK_DAYS):
        d1 = min(d0 + _BLOCK_DAYS, n_days)
        base = node_cat * infant[d0:d1, None, None]
        flux = hw_flux_factor[np.minimum(np.arange(d0, d1), last)]
        base[:, :, _HW] *= flux[:, None]
        usage = None
        if usage_mult is not None:
            usage = np.repeat(
                usage_mult[d0:d1, :, None].astype(float), N_CATEGORIES, axis=2
            )
            usage[:, :, _ENV] = 1.0
        yield base, usage


def simulate_failures(
    spec: SystemSpec,
    config: ArchiveConfig,
    rng: np.random.Generator,
    rack_of: np.ndarray | None,
    usage: UsageTraces | None,
    flux_per_day: np.ndarray,
    stressors: StressorTraces,
) -> FailureTable:
    """Run the day-stepped simulation for one system.

    Args:
        spec: the system.
        config: archive configuration.
        rng: dedicated random stream.
        rack_of: node -> rack mapping, or None (no rack cascades then).
        usage: usage traces, or None for systems without job logs.
        flux_per_day: daily neutron counts (couples into the CPU hazard).
        stressors: pre-generated stressor traces; their failures
            participate in cascade updates, and their boost schedule
            feeds the stressor state.

    Returns:
        The *organic* failures, in record order (the caller merges them
        with the stressor failures, which are in ``stressors.failures``).
    """
    effects = config.effects
    n = spec.num_nodes
    n_days = int(math.ceil(config.duration_days))
    duration = config.duration_days

    # --- static per-node, per-category organic rates ----------------------
    base = effects.base_daily_hazard(spec.group)
    shares = np.array([effects.category_mix[c] for c in CATEGORY_ORDER])
    organic = base * shares  # (6,)
    # PSU and fan failures are event-driven; remove their share from the
    # organic hardware hazard so the overall component mix stays true.
    hw_event_share = sum(effects.hw_subtype_mix[s] for s in _EVENT_DRIVEN_HW)
    organic[_HW] *= 1.0 - hw_event_share
    # Organic ENV failures are only the "other environment" remainder;
    # power/chiller events supply the rest of the ENV category.
    organic[_ENV] *= effects.env_subtype_mix[EnvironmentSubtype.OTHER_ENV]

    heterogeneity = rng.lognormal(0.0, effects.node_heterogeneity_sigma, n)
    heterogeneity /= math.exp(effects.node_heterogeneity_sigma**2 / 2.0)
    node_cat = organic[None, :] * heterogeneity[:, None]  # (N, 6)
    # The login/launch-node effect (Section IV) is a group-1 phenomenon:
    # Figures 4-6 study systems 18/19/20.  Applying the multipliers to a
    # (much smaller, higher-baseline) NUMA system would let node 0
    # dominate its entire failure log.
    if spec.group is HardwareGroup.GROUP1:
        node0 = np.array([effects.node0_multipliers[c] for c in CATEGORY_ORDER])
        node_cat[0] *= node0

    # --- neutron coupling into the CPU share of the hardware hazard -------
    hw_subs, hw_weights = _organic_hw_mix(effects)
    cpu_idx = hw_subs.index(HardwareSubtype.CPU)
    cpu_share = float(hw_weights[cpu_idx])
    mean_flux = float(flux_per_day.mean()) if flux_per_day.size else 1.0
    flux_rel = (
        flux_per_day / mean_flux if mean_flux > 0 else np.ones_like(flux_per_day)
    )
    gamma = effects.neutron_cpu_exponent
    flux_pow = flux_rel**gamma
    # Multiplier on the organic HW hazard for each day.
    hw_flux_factor = 1.0 - cpu_share + cpu_share * flux_pow

    usage_mult = None if usage is None else _usage_multiplier(
        usage, effects, n_days, n
    )

    # Per-day infant-mortality multiplier: young systems run hotter, the
    # excess decaying over the first months of life.
    days = np.arange(n_days, dtype=float)
    infant = 1.0 + (effects.infant_mortality_factor - 1.0) * np.exp(
        -days / effects.infant_period_days
    )

    # --- evolving state ----------------------------------------------------
    cascade = CascadeState(
        n,
        effects,
        effects.cascade_scale(spec.group),
        rack_of,
        decay_days=effects.cascade_decay(spec.group),
    )
    stressor_state = StressorState(n, effects)

    # Stressor failures bucketed by day for cascade absorption.
    exo_nodes_by_day: dict[int, list[int]] = {}
    exo_cats_by_day: dict[int, list[int]] = {}
    # Exogenous hardware failures (PSU/fan events) seed the node's
    # last-seen hardware component, so cascade follow-ups repeat the
    # damaged component instead of re-drawing a CPU-heavy organic mix
    # (Figures 10/13: CPUs show no increase after power/thermal events).
    exo_hw_by_day: dict[int, list[tuple[int, HardwareSubtype]]] = {}
    exo_env_by_day: dict[int, list[tuple[int, EnvironmentSubtype]]] = {}
    exo = stressors.failures
    for t, node, code, sub in zip(
        exo.times.tolist(),
        exo.node_ids.tolist(),
        exo.category_codes.tolist(),
        exo.subtype_codes.tolist(),
    ):
        d = int(t)
        subtype = FailureTable.SUBTYPES[sub]  # refines the category
        exo_nodes_by_day.setdefault(d, []).append(node)
        exo_cats_by_day.setdefault(d, []).append(_ORDER_INDEX[code])
        if isinstance(subtype, HardwareSubtype):
            exo_hw_by_day.setdefault(d, []).append((node, subtype))
        elif isinstance(subtype, EnvironmentSubtype):
            exo_env_by_day.setdefault(d, []).append((node, subtype))

    sw_sampler = _MixSampler(*_mix_arrays(effects.sw_subtype_mix))
    net_sampler = _MixSampler(*_mix_arrays(effects.net_subtype_mix))
    pwr_hw_sampler = _MixSampler(*_mix_arrays(effects.power_hw_conditional_mix))
    pwr_sw_sampler = _MixSampler(*_mix_arrays(effects.power_sw_conditional_mix))
    thr_hw_sampler = _MixSampler(*_mix_arrays(effects.thermal_hw_conditional_mix))

    last_hw_subtype: dict[int, HardwareSubtype] = {}
    last_env_subtype: dict[int, EnvironmentSubtype] = {}
    last_sw_subtype: dict[int, SoftwareSubtype] = {}

    # Columnar accumulation of the organic failures; the table is built
    # once, after the day loop.
    rec_times: list[float] = []
    rec_nodes: list[int] = []
    rec_cats: list[int] = []
    rec_subtypes: list[Subtype | None] = []

    stressor_hw = stressor_state.hw
    stressor_sw = stressor_state.sw
    stressor_thermal = stressor_state.thermal
    boost = cascade.boost
    node_hw = node_cat[:, _HW].tolist()
    node_sw = node_cat[:, _SW].tolist()

    def hw_subtype(node: int, day: int, organic_hw: float) -> HardwareSubtype:
        """Source-conditioned hardware component for one HW failure."""
        power = float(stressor_hw[node])
        thermal = float(stressor_thermal[node])
        casc = float(boost[node, _HW])
        total = organic_hw + casc + power + thermal
        u = rng.random() * total if total > 0 else 0.0
        if u < power:
            return pwr_hw_sampler.draw(rng)
        if u < power + thermal:
            return thr_hw_sampler.draw(rng)
        # Organic or cascade source: hard errors repeat components.
        prev = last_hw_subtype.get(node)
        if prev is not None and rng.random() < effects.hw_subtype_repeat_prob:
            return prev
        # CPU weight follows today's neutron flux.
        w = hw_weights.copy()
        w[cpu_idx] *= float(flux_pow[min(day, flux_pow.size - 1)])
        return _MixSampler(hw_subs, w / w.sum()).draw(rng)

    def sw_subtype(node: int) -> SoftwareSubtype:
        """Source-conditioned software subsystem for one SW failure."""
        power = float(stressor_sw[node])
        organic_sw = node_sw[node] + float(boost[node, _SW])
        total = organic_sw + power
        u = rng.random() * total if total > 0 else 0.0
        if u < power:
            sub = pwr_sw_sampler.draw(rng)
        else:
            # A flaky subsystem keeps failing: cascade follow-ups repeat
            # the previous subsystem (e.g. storage after a power event).
            prev = last_sw_subtype.get(node)
            if prev is not None and rng.random() < effects.sw_subtype_repeat_prob:
                sub = prev
            else:
                sub = sw_sampler.draw(rng)
        last_sw_subtype[node] = sub
        return sub

    # Reusable per-day hazard buffer (C-contiguous: its sum is the
    # pairwise sum of the flat cells, see the module notes).
    lam = np.empty((n, N_CATEGORIES), dtype=float)
    last_cell = n * N_CATEGORIES - 1
    last_flux_day = hw_flux_factor.size - 1
    blocks = _day_blocks(node_cat, infant, hw_flux_factor, usage_mult)

    for day in range(n_days):
        block_day = day % _BLOCK_DAYS
        if block_day == 0:
            base, usage_day = next(blocks)
        cascade.decay()
        stressor_state.decay()
        scheduled = stressors.schedule.pop(day)
        if scheduled:
            stressor_state.apply(scheduled)

        # Assemble the day's hazards.  Usage modulates the organic AND
        # cascade hazards (a stressed node fails more readily under the
        # same workload conditions) but not externally-caused ENV events
        # or the exogenous power/thermal stressor boosts.
        np.add(base[block_day], boost, out=lam)
        if usage_day is not None:
            lam *= usage_day[block_day]
        lam += stressor_state.slow
        lam += stressor_state.fast

        # Exact Poisson decomposition: one scalar total draw, then a
        # categorical assignment of the K failures to (node, cat) cells.
        total_lam = float(np.add.reduce(lam, axis=None))  # lam.sum(), unwrapped
        k = int(rng.poisson(total_lam)) if total_lam > 0 else 0

        day_nodes: list[int] = []
        day_cats: list[int] = []
        if k:
            cdf = lam.cumsum()
            cells = cdf.searchsorted(rng.random(k) * cdf[-1], side="right")
            # Round-off can overshoot the top cell; searchsorted never
            # returns a negative one, so a minimum is the clip.
            np.minimum(cells, last_cell, out=cells)
            cells.sort()  # process in (node, category) order, as v1 did
            offsets = rng.random(k)
            day_flux = float(hw_flux_factor[min(day, last_flux_day)])
            for cell, off in zip(cells.tolist(), offsets.tolist()):
                t = day + off
                if t >= duration:
                    continue
                node, cat = divmod(cell, N_CATEGORIES)
                subtype: Subtype | None
                if cat == _HW:
                    organic_hw = node_hw[node] * day_flux
                    if usage_mult is not None:
                        organic_hw *= float(usage_mult[day, node])
                    subtype = last_hw_subtype[node] = hw_subtype(
                        node, day, organic_hw
                    )
                elif cat == _SW:
                    subtype = sw_subtype(node)
                elif cat == _ENV:
                    # Environmental follow-ups usually repeat the kind of
                    # problem the node just saw (another outage during a
                    # grid-instability episode); only fresh organic ones
                    # are "other environment".
                    prev_env = last_env_subtype.get(node)
                    if (
                        prev_env is not None
                        and rng.random() < effects.env_subtype_repeat_prob
                    ):
                        subtype = prev_env
                    else:
                        subtype = EnvironmentSubtype.OTHER_ENV
                elif cat == _NET:
                    subtype = net_sampler.draw(rng)
                else:
                    subtype = None
                rec_times.append(t)
                rec_nodes.append(node)
                rec_cats.append(cat)
                rec_subtypes.append(subtype)
                day_nodes.append(node)
                day_cats.append(cat)

        # Cascades absorb today's organic *and* exogenous failures.
        day_nodes.extend(exo_nodes_by_day.get(day, ()))
        day_cats.extend(exo_cats_by_day.get(day, ()))
        for node, sub in exo_hw_by_day.get(day, ()):
            last_hw_subtype[node] = sub
        for node, env_sub in exo_env_by_day.get(day, ()):
            last_env_subtype[node] = env_sub
        if day_nodes:
            cascade.absorb(day_nodes, day_cats)

    # --- batched repair times ---------------------------------------------
    # Repair times are drawn per category (in CATEGORY_ORDER, then row
    # order), which is deterministic and replaces one lognormal variate
    # call per failure with one call per category.
    n_rec = len(rec_times)
    cats_arr = np.asarray(rec_cats, dtype=np.int64)
    downtimes = np.empty(n_rec, dtype=float)
    for cat_idx, category in enumerate(CATEGORY_ORDER):
        sel = np.nonzero(cats_arr == cat_idx)[0]
        if sel.size:
            mu, sigma = effects.downtime_lognorm[category]
            downtimes[sel] = rng.lognormal(mu, sigma, sel.size)

    return FailureTable(
        times=np.asarray(rec_times, dtype=float),
        node_ids=np.asarray(rec_nodes, dtype=np.int64),
        category_codes=_TABLE_CODE[cats_arr],
        subtype_codes=np.fromiter(
            map(FailureTable.subtype_code, rec_subtypes), np.int64, n_rec
        ),
        downtime_hours=downtimes,
    ).in_record_order()
