"""Follow-up-failure risk scoring.

The paper motivates its correlation study with failure prediction:
"it helps in the prediction of failures, which is useful, for example,
for scheduling application checkpoints or for designing job migration
strategies" (Section III), and its lessons-learned stress that predictive
models "should not only account for correlations between failures in
time and space, but also consider the root-causes of failures".

:class:`RiskModel` operationalises exactly that: it is *fitted* from an
archive by running the paper's own conditional-probability analyses
(per-trigger-type, per-scope), and then *scores* a node's probability of
failing within a horizon given the recent failure history of the node,
its rack and its system.  Probabilities combine under an independent-
hazard approximation: each recent event contributes the excess hazard
implied by its measured conditional probability.  All scoring goes
through one batch kernel, :meth:`RiskModel.score_batch`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
from numpy.typing import ArrayLike

from ..records.dataset import FailureTable, SystemDataset
from ..records.taxonomy import Category, all_categories
from ..records.timeutil import Span
from ..core.correlations import (
    pooled_baseline,
    pooled_conditional,
)
from ..core.windows import Scope


class RiskModelError(ValueError):
    """Raised on invalid risk-model construction or queries."""


#: Scope code of each scope, as :meth:`RiskModel.score_batch` takes it.
SCOPE_CODES = {Scope.NODE: 0, Scope.RACK: 1, Scope.SYSTEM: 2}


@dataclass(frozen=True, slots=True)
class RecentFailure:
    """One recent failure fed to the scorer.

    Attributes:
        age_days: how long ago it happened (>= 0).
        category: its root-cause category.
        scope: where it happened relative to the node being scored --
            NODE (the node itself), RACK (a rack neighbour), SYSTEM
            (elsewhere in the system).
    """

    age_days: float
    category: Category
    scope: Scope

    def __post_init__(self) -> None:
        if not (self.age_days >= 0):
            raise RiskModelError(f"age_days must be >= 0, got {self.age_days}")


@dataclass(frozen=True)
class RiskModel:
    """Conditional-probability risk model fitted from an archive.

    Attributes:
        horizon: prediction window the probabilities refer to.
        baseline: P(node fails within horizon) unconditionally.
        conditional: per (scope, trigger category) probability of a node
            failure within the horizon of such a trigger.
    """

    horizon: Span
    baseline: float
    conditional: Mapping[tuple[Scope, Category], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, p in [("baseline", self.baseline), *self.conditional.items()]:
            if not (0.0 <= p <= 1.0):
                raise RiskModelError(f"{name} probability must be in [0, 1], got {p}")

    @classmethod
    def fit(
        cls,
        systems: Sequence[SystemDataset],
        horizon: Span = Span.WEEK,
        scopes: Sequence[Scope] = (Scope.NODE, Scope.RACK, Scope.SYSTEM),
    ) -> "RiskModel":
        """Fit the model by measuring the paper's conditional probabilities.

        Rack-scope probabilities are only fitted when at least one system
        has a machine layout.
        """
        if not systems:
            raise RiskModelError("need at least one system to fit")
        base = pooled_baseline(systems, horizon).estimate().value
        conditional: dict[tuple[Scope, Category], float] = {}
        for scope in scopes:
            if scope is Scope.RACK and not any(ds.has_layout for ds in systems):
                continue
            for cat in all_categories():
                counts = pooled_conditional(
                    systems, horizon, trigger_category=cat, scope=scope
                )
                est = counts.estimate()
                if est.defined:
                    conditional[(scope, cat)] = est.value
        return cls(horizon=horizon, baseline=base, conditional=conditional)

    def score_batch(
        self, lengths: ArrayLike, ages: ArrayLike, scopes: ArrayLike, codes: ArrayLike
    ) -> np.ndarray:
        """P(failure within the horizon) for each of many recent histories.

        History ``i`` is the next ``lengths[i]`` entries of the flat
        ``ages`` (days), ``scopes`` (:data:`SCOPE_CODES`) and ``codes``
        (:func:`all_categories` order).  An event's measured ``p_c``
        implies a hazard ``-ln(1 - p_c)`` over the horizon after it, of
        which the baseline accounts for ``-ln(1 - p_b)``.  Events add the
        excess, times the unexpired fraction of their window, to the
        baseline hazard in history order; unfitted ones add nothing.
        """
        lengths = np.asarray(lengths, dtype=np.int64)
        ages = np.asarray(ages, dtype=float)
        scopes = np.asarray(scopes, dtype=np.int64)
        codes = np.asarray(codes, dtype=np.int64)
        if not ages.shape == scopes.shape == codes.shape == (lengths.sum(),):
            raise RiskModelError("history arrays must hold sum(lengths) events")
        base = -math.log(max(1.0 - self.baseline, 1e-12))
        categories = all_categories()
        excess = np.zeros((len(SCOPE_CODES), len(categories)))
        for scope, row in SCOPE_CODES.items():
            for code, category in enumerate(categories):
                p_c = self.conditional.get((scope, category))
                if p_c is not None:
                    excess[row, code] = max(-math.log(max(1.0 - p_c, 1e-12)) - base, 0.0)
        h_days = self.horizon.days
        remaining = np.where(ages >= h_days, 0.0, 1.0 - ages / h_days)
        # An empty history scores the baseline alone.  The rest go through
        # a zero-padded (instance, slot) matrix behind a baseline column;
        # the cumulative sum adds each row left to right, one slot at a
        # time, and the padding after a history adds exactly nothing.
        # libm's exp, not numpy's SIMD one, which may differ in the last ulp.
        scores = np.full(lengths.size, 1.0 - math.exp(-base))
        held = np.flatnonzero(lengths)
        if held.size:
            sizes = lengths[held]
            padded = np.zeros((held.size, 1 + int(sizes.max())))
            padded[:, 0] = base
            padded[:, 1:][np.arange(padded.shape[1] - 1) < sizes[:, None]] = (
                excess[scopes, codes] * remaining
            )
            hazards = np.cumsum(padded, axis=1)[:, -1]
            scores[held] = [1.0 - math.exp(-h) for h in hazards.tolist()]
        return scores

    def score(self, recent: Sequence[RecentFailure] = ()) -> float:
        """P(the node fails within the horizon), given recent history."""
        return float(self.score_batch(
            [len(recent)],
            [event.age_days for event in recent],
            [SCOPE_CODES[event.scope] for event in recent],
            [FailureTable.category_code(event.category) for event in recent],
        )[0])

    def rank_factors(self) -> list[tuple[Scope, Category, float]]:
        """Trigger types ranked by factor over baseline (descending).

        Reproduces the paper's operator guidance: which events should
        put an operator on alert (ENV and NET at node scope top the
        list).
        """
        if self.baseline <= 0:
            raise RiskModelError("baseline probability is zero; cannot rank")
        ranked = [
            (scope, cat, p / self.baseline)
            for (scope, cat), p in self.conditional.items()
        ]
        ranked.sort(key=lambda t: t[2], reverse=True)
        return ranked
