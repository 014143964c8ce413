"""The batch held-out evaluation against the per-window reference.

``reference_evaluation`` is the straightforward evaluation: one
:class:`RecentFailure` history per (node, test window), each scored
with the per-event loop in ``reference_risk.py``.  The package scores
every window of a system in one call to the batch kernel; the two must
give equal :class:`RiskEvaluation` values with ``==``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.windows import Scope
from repro.prediction.evaluation import (
    RiskEvaluation,
    evaluate_risk_model,
    truncate_system,
)
from repro.prediction.risk import RecentFailure, RiskModel
from repro.records.taxonomy import all_categories
from repro.records.timeutil import Span
from tests.prediction.reference_risk import reference_score


def reference_evaluation(systems, horizon, train_fraction) -> RiskEvaluation:
    """Score each (node, window) tile from its own history, one at a time."""
    cats = list(all_categories())
    model = RiskModel.fit(
        [
            truncate_system(
                ds,
                ds.period.start,
                ds.period.start + train_fraction * ds.period.length,
            )
            for ds in systems
        ],
        horizon=horizon,
        scopes=(Scope.NODE,),
    )
    predictions: list[float] = []
    labels: list[int] = []
    h_days = horizon.days
    for ds in systems:
        test_start = ds.period.start + train_fraction * ds.period.length
        if ds.period.end - test_start < 2 * h_days:
            continue
        table = ds.failure_table
        n_windows = int((ds.period.end - test_start - h_days) // h_days)
        starts = test_start + h_days * np.arange(n_windows)
        for node in range(ds.num_nodes):
            mask = table.node_ids == node
            times, cat_codes = table.times[mask], table.category_codes[mask]
            lo = np.searchsorted(times, starts - h_days, side="left")
            mid = np.searchsorted(times, starts, side="left")
            hi = np.searchsorted(times, starts + h_days, side="left")
            for w in range(n_windows):
                recent = [
                    RecentFailure(
                        age_days=float(starts[w] - times[i]),
                        category=cats[int(cat_codes[i])],
                        scope=Scope.NODE,
                    )
                    for i in range(int(lo[w]), int(mid[w]))
                ]
                predictions.append(reference_score(model, recent))
                labels.append(int(hi[w] > mid[w]))
    p = np.asarray(predictions)
    y = np.asarray(labels, dtype=float)
    base_rate = float(y.mean())
    brier_model = float(((p - y) ** 2).mean())
    brier_baseline = float(((model.baseline - y) ** 2).mean())
    top = np.argsort(p)[-max(1, p.size // 10):]
    return RiskEvaluation(
        horizon=horizon,
        n_instances=int(p.size),
        base_rate=base_rate,
        brier_model=brier_model,
        brier_baseline=brier_baseline,
        skill=1.0 - brier_model / brier_baseline,
        lift_top_decile=float(y[top].mean()) / base_rate,
        recall_top_decile=float(y[top].sum() / y.sum()),
    )


@pytest.mark.parametrize("train_fraction", [0.5, 0.7])
@pytest.mark.parametrize("horizon", [Span.WEEK, Span.MONTH])
def test_batch_evaluation_equals_reference(medium_archive, horizon, train_fraction):
    systems = list(medium_archive)
    got = evaluate_risk_model(systems, horizon=horizon, train_fraction=train_fraction)
    want = reference_evaluation(systems, horizon, train_fraction)
    assert got.n_instances > 1000
    assert got == want
