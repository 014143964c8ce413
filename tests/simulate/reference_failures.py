"""The failure simulator's per-call day loop, kept as an independent oracle.

The generator's day loop (:func:`repro.simulate.failures.simulate_failures`)
runs a fused day step: it precomputes each day's base hazard in blocks of
days, holds the stressor channels in two ``(N, 6)`` arrays and takes a
single-failure shortcut through the cascade update.  This module keeps
the loop it replaced -- about 17 numpy calls per system-day, with its own
:class:`CascadeState` and :class:`StressorState` -- as it was.  Tests run
both on the same inputs and require equal failure records, times and
downtimes equal as ``float.hex``, so the fused step must make every
float operation and every random draw the old loop made, in its order.
"""

from __future__ import annotations

import math

import numpy as np

from repro.records.dataset import HardwareGroup
from repro.records.failure import FailureRecord
from repro.records.taxonomy import (
    Category,
    EnvironmentSubtype,
    HardwareSubtype,
    SoftwareSubtype,
    Subtype,
)
from repro.simulate.config import (
    ArchiveConfig,
    CATEGORY_INDEX,
    CATEGORY_ORDER,
    EffectSizes,
    N_CATEGORIES,
    SystemSpec,
)
from repro.simulate.power import StressorTraces
from repro.simulate.usage import UsageTraces
from tests.records.record_views import failure_table_records


class CascadeState:
    """Decaying per-node per-category cascade boosts.

    ``boost`` is an ``(N, 6)`` array of additive daily hazards.  Each
    simulated day the state decays by ``exp(-1/decay_days)`` and then
    absorbs the day's failures.
    """

    #: Maximum tolerated branching factor (expected follow-up failures
    #: spawned per failure).  At 1.0 the cascade is critical and the
    #: failure process never stabilises; construction fails loudly well
    #: before that instead of silently generating failures without bound.
    MAX_BRANCHING = 0.95

    def __init__(
        self,
        num_nodes: int,
        effects: EffectSizes,
        cascade_scale: float,
        rack_of: np.ndarray | None,
        decay_days: float | None = None,
    ) -> None:
        self.num_nodes = num_nodes
        self.boost = np.zeros((num_nodes, N_CATEGORIES))
        tau = decay_days if decay_days is not None else effects.cascade_decay_days
        if tau <= 0:
            raise ValueError(f"decay_days must be positive, got {tau}")
        self._decay = math.exp(-1.0 / tau)
        s = cascade_scale
        self._node_matrix = np.asarray(effects.same_node_cascade) * s
        self._rack_matrix = np.asarray(effects.same_rack_cascade) * s
        # System-matrix entries are SYSTEM-WIDE TOTALS; dividing by the
        # node count keeps per-failure branching independent of size.
        # The group cascade scale deliberately does NOT apply here: the
        # group-2 scale compensates for higher per-node baselines, while
        # the system-wide total is a property of shared infrastructure.
        self._system_matrix = np.asarray(effects.same_system_cascade) / num_nodes
        if rack_of is not None:
            rack_of = np.asarray(rack_of, dtype=np.int64)
            if rack_of.shape != (num_nodes,):
                raise ValueError("rack_of must map every node to a rack")
            self._rack_of = rack_of
            self._num_racks = int(rack_of.max()) + 1
            counts = np.bincount(rack_of)
            max_rack = int(counts.max())
            self._rack_members = [
                np.flatnonzero(rack_of == r) for r in range(self._num_racks)
            ]
        else:
            self._rack_of = None
            self._num_racks = 0
            max_rack = 1
            self._rack_members = []
        # Guard against a supercritical cascade: per trigger category, the
        # expected number of spawned follow-ups across node, rack and
        # system terms (each boost integrates to row_sum * tau over time).
        branching = (
            self._node_matrix.sum(axis=1)
            + self._rack_matrix.sum(axis=1) * max(max_rack - 1, 0)
            + self._system_matrix.sum(axis=1) * num_nodes
        ) * tau
        worst = float(branching.max())
        if worst > self.MAX_BRANCHING:
            raise ValueError(
                f"cascade configuration is (super)critical: branching factor "
                f"{worst:.2f} > {self.MAX_BRANCHING}; reduce cascade matrix "
                f"entries, scale, or decay time"
            )

    def decay(self) -> None:
        """Advance the state by one day."""
        self.boost *= self._decay

    def absorb(self, failure_nodes: np.ndarray, failure_cats: np.ndarray) -> None:
        """Add the cascade contributions of one day's failures.

        Args:
            failure_nodes: node index of each failure (int array).
            failure_cats: category index (0..5) of each failure.
        """
        nodes = np.asarray(failure_nodes, dtype=np.int64)
        cats = np.asarray(failure_cats, dtype=np.int64)
        if nodes.size == 0:
            return
        # A day rarely sees more than a handful of failures, so sparse
        # per-failure row updates beat dense (N, 6) count matrices.
        nodes_l = nodes.tolist()
        cats_l = cats.tolist()
        # Same-node boosts: each failure adds its trigger row to its node.
        for node, cat in zip(nodes_l, cats_l):
            self.boost[node] += self._node_matrix[cat]
        # Same-system boosts: every node receives the system-wide total.
        # (The origin node's own small extra contribution is negligible
        # against its same-node term and is deliberately not subtracted.)
        cat_totals = np.bincount(cats, minlength=N_CATEGORIES).astype(float)
        self.boost += cat_totals @ self._system_matrix
        # Same-rack boosts: rack neighbours minus the origin node, so a
        # failure boosts its *neighbours*, not (again) its own node.
        if self._rack_of is not None:
            for node, cat in zip(nodes_l, cats_l):
                row = self._rack_matrix[cat]
                self.boost[self._rack_members[self._rack_of[node]]] += row
                self.boost[node] -= row



class StressorState:
    """Decaying stressor boosts: hardware, software and thermal channels.

    * ``hw`` / ``sw`` decay with :attr:`EffectSizes.stressor_decay_days`
      (slow: month-scale effects of Figures 10/11);
    * ``thermal`` decays with :attr:`EffectSizes.cascade_decay_days`
      (fast: a fan failure's temperature excursion is short, Figure 13).

    The relative sizes of the channels also steer conditional subtype
    mixes: a hardware failure sampled while ``hw`` dominates the node's
    hazard draws its component from the power-conditioned mix.
    """

    def __init__(self, num_nodes: int, effects: EffectSizes) -> None:
        self.hw = np.zeros(num_nodes)
        self.sw = np.zeros(num_nodes)
        self.thermal = np.zeros(num_nodes)
        self._slow_decay = math.exp(-1.0 / effects.stressor_decay_days)
        self._fast_decay = math.exp(-1.0 / effects.cascade_decay_days)

    def decay(self) -> None:
        """Advance the state by one day."""
        self.hw *= self._slow_decay
        self.sw *= self._slow_decay
        self.thermal *= self._fast_decay

    def apply(self, entries: list[tuple[np.ndarray, float, float, float]]) -> None:
        """Apply a day's scheduled boost additions."""
        for nodes, hw, sw, thermal in entries:
            if hw:
                self.hw[nodes] += hw
            if sw:
                self.sw[nodes] += sw
            if thermal:
                self.thermal[nodes] += thermal


_HW = CATEGORY_INDEX[Category.HARDWARE]
_SW = CATEGORY_INDEX[Category.SOFTWARE]
_ENV = CATEGORY_INDEX[Category.ENVIRONMENT]

#: Hardware subtypes generated as dedicated stressor processes rather
#: than organic draws (see :mod:`repro.simulate.power`).
_EVENT_DRIVEN_HW = (HardwareSubtype.POWER_SUPPLY, HardwareSubtype.FAN)

#: Floor on the usage hazard multiplier, keeping hazards positive under
#: the negative utilization coefficient.
_USAGE_MULT_FLOOR = 0.1


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
    """Cheap categorical sampler: cumulative weights + searchsorted.

    ``numpy.random.Generator.choice`` re-normalises and re-cumsums its
    probability vector on every call, which dominated the per-failure
    cost of the v1 engine; this pre-computes the CDF once.
    """

    __slots__ = ("subs", "cdf")

    def __init__(self, subs: list, weights: np.ndarray) -> None:
        self.subs = subs
        self.cdf = np.cumsum(weights)
        self.cdf[-1] = 1.0  # guard against round-off at the top end

    def draw(self, rng: np.random.Generator):
        i = int(np.searchsorted(self.cdf, rng.random(), side="right"))
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


def simulate_failures(
    spec: SystemSpec,
    config: ArchiveConfig,
    rng: np.random.Generator,
    rack_of: np.ndarray | None,
    usage: UsageTraces | None,
    flux_per_day: np.ndarray,
    stressors: StressorTraces,
) -> list[FailureRecord]:
    """Run the day-stepped simulation for one system.

    Args:
        spec: the system.
        config: archive configuration.
        rng: dedicated random stream.
        rack_of: node -> rack mapping, or None (no rack cascades then).
        usage: usage traces, or None for systems without job logs.
        flux_per_day: daily neutron counts (couples into the CPU hazard).
        stressors: pre-generated stressor traces; their failure records
            participate in cascade updates, and their boost schedule
            feeds the stressor state.

    Returns:
        The *organic* failure records (the caller merges them with the
        stressor records, which are already in ``stressors.failures``).
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
    stressor_failures = failure_table_records(stressors.failures, spec.system_id)
    exo_nodes_by_day: dict[int, list[int]] = {}
    exo_cats_by_day: dict[int, list[int]] = {}
    # Exogenous hardware failures (PSU/fan events) seed the node's
    # last-seen hardware component, so cascade follow-ups repeat the
    # damaged component instead of re-drawing a CPU-heavy organic mix
    # (Figures 10/13: CPUs show no increase after power/thermal events).
    exo_hw_by_day: dict[int, list[tuple[int, HardwareSubtype]]] = {}
    for f in stressor_failures:
        d = int(f.time)
        exo_nodes_by_day.setdefault(d, []).append(f.node_id)
        exo_cats_by_day.setdefault(d, []).append(CATEGORY_INDEX[f.category])
        if f.category is Category.HARDWARE and isinstance(
            f.subtype, HardwareSubtype
        ):
            exo_hw_by_day.setdefault(d, []).append((f.node_id, f.subtype))
    exo_env_by_day: dict[int, list[tuple[int, EnvironmentSubtype]]] = {}
    for f in stressor_failures:
        if f.category is Category.ENVIRONMENT and isinstance(
            f.subtype, EnvironmentSubtype
        ):
            exo_env_by_day.setdefault(int(f.time), []).append(
                (f.node_id, f.subtype)
            )

    organic_hw_sampler = _MixSampler(hw_subs, hw_weights)
    sw_sampler = _MixSampler(*_mix_arrays(effects.sw_subtype_mix))
    net_sampler = _MixSampler(*_mix_arrays(effects.net_subtype_mix))
    pwr_hw_sampler = _MixSampler(*_mix_arrays(effects.power_hw_conditional_mix))
    pwr_sw_sampler = _MixSampler(*_mix_arrays(effects.power_sw_conditional_mix))
    thr_hw_sampler = _MixSampler(*_mix_arrays(effects.thermal_hw_conditional_mix))

    last_hw_subtype: dict[int, HardwareSubtype] = {}
    last_env_subtype: dict[int, EnvironmentSubtype] = {}
    last_sw_subtype: dict[int, SoftwareSubtype] = {}

    # Columnar accumulation of the organic failures; FailureRecord
    # objects are materialised once, after the day loop.
    rec_times: list[float] = []
    rec_nodes: list[int] = []
    rec_cats: list[int] = []
    rec_subtypes: list[Subtype | None] = []

    def hw_subtype(node: int, day: int, organic_hw: float) -> HardwareSubtype:
        """Source-conditioned hardware component for one HW failure."""
        power = float(stressor_state.hw[node])
        thermal = float(stressor_state.thermal[node])
        casc = float(cascade.boost[node, _HW])
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
        cdf = np.cumsum(w / w.sum())
        cdf[-1] = 1.0
        i = int(np.searchsorted(cdf, rng.random(), side="right"))
        return hw_subs[min(i, len(hw_subs) - 1)]

    def sw_subtype(node: int) -> SoftwareSubtype:
        """Source-conditioned software subsystem for one SW failure."""
        power = float(stressor_state.sw[node])
        organic_sw = float(node_cat[node, _SW]) + float(cascade.boost[node, _SW])
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

    # Reusable per-day hazard buffer and scratch columns.
    lam = np.empty((n, N_CATEGORIES), dtype=float)
    env_col = np.empty(n, dtype=float)
    n_cells = n * N_CATEGORIES

    for day in range(n_days):
        cascade.decay()
        stressor_state.decay()
        stressor_state.apply(stressors.schedule.pop(day))

        # Assemble the day's hazards.  Usage modulates the organic AND
        # cascade hazards (a stressed node fails more readily under the
        # same workload conditions) but not externally-caused ENV events
        # or the exogenous power/thermal stressor boosts.
        np.multiply(node_cat, infant[day], out=lam)
        lam[:, _HW] *= hw_flux_factor[min(day, hw_flux_factor.size - 1)]
        lam += cascade.boost
        if usage_mult is not None:
            um = usage_mult[day]
            env_col[:] = lam[:, _ENV]
            lam *= um[:, None]
            lam[:, _ENV] = env_col
        lam[:, _HW] += stressor_state.hw
        lam[:, _HW] += stressor_state.thermal
        lam[:, _SW] += stressor_state.sw

        # Exact Poisson decomposition: one scalar total draw, then a
        # categorical assignment of the K failures to (node, cat) cells.
        total_lam = float(lam.sum())
        k = int(rng.poisson(total_lam)) if total_lam > 0 else 0

        day_nodes: list[int] = []
        day_cats: list[int] = []
        if k:
            cdf = np.cumsum(lam.ravel())
            cells = np.searchsorted(
                cdf, rng.random(k) * cdf[-1], side="right"
            )
            np.clip(cells, 0, n_cells - 1, out=cells)
            cells.sort()  # process in (node, category) order, as v1 did
            offsets = rng.random(k)
            day_flux = float(
                hw_flux_factor[min(day, hw_flux_factor.size - 1)]
            )
            for cell, off in zip(cells.tolist(), offsets.tolist()):
                t = day + off
                if t >= duration:
                    continue
                node, cat = divmod(cell, N_CATEGORIES)
                category = CATEGORY_ORDER[cat]
                subtype: Subtype | None
                if cat == _HW:
                    organic_hw = float(node_cat[node, _HW]) * day_flux
                    if usage_mult is not None:
                        organic_hw *= float(usage_mult[day, node])
                    sub = hw_subtype(node, day, organic_hw)
                    last_hw_subtype[node] = sub
                    subtype = sub
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
                elif category is Category.NETWORK:
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
            cascade.absorb(
                np.asarray(day_nodes, dtype=np.int64),
                np.asarray(day_cats, dtype=np.int64),
            )

    # --- batched record materialisation -----------------------------------
    # Repair times are drawn per category (in CATEGORY_ORDER, then record
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

    times_arr = np.asarray(rec_times, dtype=float)
    nodes_arr = np.asarray(rec_nodes, dtype=np.int64)
    order = np.lexsort((nodes_arr, times_arr))
    sid = spec.system_id
    return [
        FailureRecord(
            time=times_arr[i],
            system_id=sid,
            node_id=int(nodes_arr[i]),
            category=CATEGORY_ORDER[rec_cats[i]],
            subtype=rec_subtypes[i],
            downtime_hours=downtimes[i],
        )
        for i in order.tolist()
    ]
