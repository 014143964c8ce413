"""Hazard bookkeeping for the day-stepped failure simulation.

Two kinds of state evolve during simulation:

* **Cascade boosts** (:class:`CascadeState`): every failure leaves a
  decaying additive hazard boost on its own node (strongest), on its rack
  neighbours (weaker) and on every node of the system (weakest), keyed by
  a trigger-category x target-category matrix.  This is the generative
  mechanism behind the paper's Section III correlations.
* **Stressor boosts** (:class:`BoostSchedule` + :class:`StressorState`):
  power and temperature events schedule additive hardware / software /
  thermal hazard boosts on affected nodes, possibly with a delay (power
  spikes act "more apparent at longer timespans").  These drive the
  Section VII and VIII effects.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..records.taxonomy import Category
from .config import CATEGORY_INDEX, EffectSizes, N_CATEGORIES

_HW = CATEGORY_INDEX[Category.HARDWARE]
_SW = CATEGORY_INDEX[Category.SOFTWARE]


def sample_downtime(
    category: Category, rng: np.random.Generator, effects: EffectSizes
) -> float:
    """Draw a repair time (hours) for a failure of ``category``."""
    mu, sigma = effects.downtime_lognorm[category]
    return float(rng.lognormal(mu, sigma))


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
            counts = np.bincount(rack_of)
            max_rack = int(counts.max())
            # Each node's rack (itself included), as a slice where the
            # rack is a run of consecutive node ids.
            members = [_as_slice(np.flatnonzero(rack_of == r)) for r in range(counts.size)]
            self._rack_members = [members[r] for r in rack_of.tolist()]
        else:
            self._rack_of = None
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

    def absorb(self, failure_nodes: Sequence[int], failure_cats: Sequence[int]) -> None:
        """Add the cascade contributions of one day's failures.

        Args:
            failure_nodes: node index of each failure (ints).
            failure_cats: category index (0..5) of each failure.
        """
        nodes_l = list(map(int, failure_nodes))
        cats_l = list(map(int, failure_cats))
        if len(nodes_l) <= 1:
            if nodes_l:
                self._absorb_one(nodes_l[0], cats_l[0])
            return
        # A day rarely sees more than a handful of failures, so sparse
        # per-failure row updates beat dense (N, 6) count matrices.
        # Same-node boosts: each failure adds its trigger row to its node.
        for node, cat in zip(nodes_l, cats_l):
            self.boost[node] += self._node_matrix[cat]
        # Same-system boosts: every node receives the system-wide total.
        # (The origin node's own small extra contribution is negligible
        # against its same-node term and is deliberately not subtracted.)
        cat_totals = np.bincount(cats_l, minlength=N_CATEGORIES).astype(float)
        self.boost += cat_totals @ self._system_matrix
        # Same-rack boosts: rack neighbours minus the origin node, so a
        # failure boosts its *neighbours*, not (again) its own node.
        if self._rack_of is not None:
            for node, cat in zip(nodes_l, cats_l):
                row = self._rack_matrix[cat]
                self.boost[self._rack_members[node]] += row
                self.boost[node] -= row

    def _absorb_one(self, node: int, cat: int) -> None:
        """:meth:`absorb` of a single failure, with the same additions in
        the same order.  The system term is the trigger's row itself: a
        one-hot count vector times the matrix adds only exact zeros to it.
        """
        boost = self.boost
        boost[node] += self._node_matrix[cat]
        boost += self._system_matrix[cat]
        if self._rack_of is not None:
            row = self._rack_matrix[cat]
            boost[self._rack_members[node]] += row
            boost[node] -= row


def _as_slice(index: np.ndarray) -> slice | np.ndarray:
    """``index`` as the equivalent slice if it is a run of consecutive
    integers (indexing by either touches the same elements)."""
    if index.size and index[-1] - index[0] == index.size - 1:
        return slice(int(index[0]), int(index[-1]) + 1)
    return index


@dataclass
class BoostSchedule:
    """Deferred per-day stressor-boost additions.

    Events register ``(nodes, hw, sw, thermal)`` tuples under the day the
    boost should take effect (power spikes defer by
    ``EffectSizes.spike_delay_days``); the simulation pops each day's
    entries as it reaches them.
    """

    _by_day: dict[int, list[tuple[np.ndarray, float, float, float]]] = field(
        default_factory=lambda: defaultdict(list)
    )

    def add(
        self,
        day: int,
        nodes: np.ndarray,
        hw: float = 0.0,
        sw: float = 0.0,
        thermal: float = 0.0,
    ) -> None:
        """Schedule a boost addition on ``nodes`` effective at ``day``."""
        if hw < 0 or sw < 0 or thermal < 0:
            raise ValueError("boost amounts must be >= 0")
        self._by_day[day].append(
            (np.asarray(nodes, dtype=np.int64), hw, sw, thermal)
        )

    def pop(self, day: int) -> list[tuple[np.ndarray, float, float, float]]:
        """Entries effective at ``day`` (removed from the schedule)."""
        return self._by_day.pop(day, [])


class StressorState:
    """Decaying stressor boosts: hardware, software and thermal channels.

    * ``hw`` / ``sw`` decay with :attr:`EffectSizes.stressor_decay_days`
      (slow: month-scale effects of Figures 10/11);
    * ``thermal`` decays with :attr:`EffectSizes.cascade_decay_days`
      (fast: a fan failure's temperature excursion is short, Figure 13).

    The channels live in two ``(N, 6)`` arrays laid out like the day's
    hazard: ``slow`` holds ``hw`` in the hardware column and ``sw`` in the
    software column, ``fast`` holds ``thermal`` in the hardware column,
    and every other column is zero.  ``hw``, ``sw`` and ``thermal`` are
    column views of them.  The simulator adds ``slow`` and then ``fast``
    to its hazard: that adds ``hw`` then ``thermal`` to each hardware
    hazard and ``sw`` to each software hazard, as separate column adds
    would, and a zero everywhere else, which changes no value.

    The relative sizes of the channels also steer conditional subtype
    mixes: a hardware failure sampled while ``hw`` dominates the node's
    hazard draws its component from the power-conditioned mix.
    """

    def __init__(self, num_nodes: int, effects: EffectSizes) -> None:
        self.slow = np.zeros((num_nodes, N_CATEGORIES))
        self.fast = np.zeros((num_nodes, N_CATEGORIES))
        self.hw = self.slow[:, _HW]
        self.sw = self.slow[:, _SW]
        self.thermal = self.fast[:, _HW]
        self._slow_decay = math.exp(-1.0 / effects.stressor_decay_days)
        self._fast_decay = math.exp(-1.0 / effects.cascade_decay_days)

    def decay(self) -> None:
        """Advance the state by one day."""
        self.slow *= self._slow_decay
        self.fast *= self._fast_decay

    def apply(self, entries: list[tuple[np.ndarray, float, float, float]]) -> None:
        """Apply a day's scheduled boost additions."""
        for nodes, hw, sw, thermal in entries:
            if hw:
                self.hw[nodes] += hw
            if sw:
                self.sw[nodes] += sw
            if thermal:
                self.thermal[nodes] += thermal
