"""Held-out evaluation of the failure-risk model.

The paper argues its correlation findings matter because they enable
failure prediction ("scheduling application checkpoints ... job
migration strategies") and that predictive models should "consider the
root-causes of failures".  This module quantifies that claim with a
proper temporal split:

1. each system's record is split in time: the first ``train_fraction``
   fits the :class:`~repro.prediction.risk.RiskModel`, the rest is held
   out;
2. every (node, window) tile of the held-out period becomes an
   evaluation instance: the model scores it from the node's failures in
   the preceding horizon, the label is whether the node failed in the
   window;
3. metrics: Brier score against the constant-baseline predictor (skill
   score), and lift of the top-decile predictions -- the operational
   "how much better do we page when the model says so".

A positive skill and a lift well above 1 demonstrate, out of sample,
that recent failures (with their root causes) predict future ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.cache import get_cache
from ..core.windows import Scope
from ..records.dataset import SystemDataset
from ..records.timeutil import Span
from .risk import SCOPE_CODES, RiskModel, RiskModelError


class EvaluationError(ValueError):
    """Raised when a valid train/test split cannot be built."""


def truncate_system(
    ds: SystemDataset, start: float, end: float
) -> SystemDataset:
    """``ds`` restricted to failures inside ``[start, end)``.

    Usage, temperature and maintenance records are dropped (the risk
    model does not consume them); the layout is kept for rack scope.
    The view (:meth:`SystemDataset.failures_between`) is memoized on
    ``ds``'s analysis cache, so repeated evaluations fit the training
    split from the view's own warm cache.
    """
    if not (ds.period.start <= start < end <= ds.period.end):
        raise EvaluationError(
            f"[{start}, {end}) is not inside the observation period "
            f"[{ds.period.start}, {ds.period.end})"
        )
    return get_cache(ds).summary(
        ("truncate", start, end), lambda: ds.failures_between(start, end)
    )


@dataclass(frozen=True, slots=True)
class RiskEvaluation:
    """Out-of-sample performance of the risk model.

    Attributes:
        horizon: prediction window.
        n_instances: evaluated (node, window) tiles.
        base_rate: fraction of positive labels (a node failing).
        brier_model: mean squared error of the model's probabilities.
        brier_baseline: Brier score of always predicting the training
            baseline probability.
        skill: ``1 - brier_model / brier_baseline`` (positive = model
            beats the constant predictor).
        lift_top_decile: positive rate among the 10% highest-scored
            instances over the overall positive rate.
        recall_top_decile: fraction of all failures captured by paging
            on the top decile.

    The top decile is the ``k = max(1, n // 10)`` highest scores.  The
    instances tied at the k-th highest score share the slots the
    higher ones leave, each counted with weight ``(k - n_above) /
    n_tied``: the expectation under a uniform random tie-break, so the
    two top-decile metrics do not depend on instance order.
    """

    horizon: Span
    n_instances: int
    base_rate: float
    brier_model: float
    brier_baseline: float
    skill: float
    lift_top_decile: float
    recall_top_decile: float


def _node_events(ds: SystemDataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(times, category codes, bounds) of the failures grouped by node:
    node ``k``'s, in time order, are rows ``bounds[k]:bounds[k + 1]``."""
    table = ds.failure_table
    order = np.argsort(table.node_ids, kind="stable")
    bounds = np.searchsorted(table.node_ids[order], np.arange(ds.num_nodes + 1))
    return table.times[order], table.category_codes[order], bounds


def _window_rows(
    ds: SystemDataset, bounds: np.ndarray, edges: np.ndarray
) -> np.ndarray:
    """For each node ``k`` and each entry ``e`` of the 2-D ``edges``, the
    node-grouped row ``bounds[k] + (node k's failures before e)``, laid
    out node-major: shape ``(edges.shape[0], num_nodes * edges.shape[1])``.

    One search per system: each failure is bucketed by the distinct
    edges at or before it, and a cumulative sum of the per-node bucket
    counts gives every node's count before every edge.
    """
    table = ds.failure_table
    distinct = np.unique(edges)
    width = distinct.size + 1
    buckets = np.searchsorted(distinct, table.times, side="right")
    counts = np.bincount(
        table.node_ids * width + buckets, minlength=ds.num_nodes * width
    )
    before = np.cumsum(counts.reshape(ds.num_nodes, width), axis=1)
    rows = bounds[:-1, None, None] + before[:, np.searchsorted(distinct, edges)]
    return rows.transpose(1, 0, 2).reshape(edges.shape[0], -1)


def evaluate_risk_model(
    systems: Sequence[SystemDataset],
    horizon: Span = Span.WEEK,
    train_fraction: float = 0.5,
) -> RiskEvaluation:
    """Temporal-split evaluation of the risk model on one or more systems.

    Args:
        systems: systems to evaluate on (train and test splits come from
            the same systems' earlier/later halves).
        horizon: prediction window (and history window for features).
        train_fraction: fraction of each system's record used to fit.

    Returns:
        Aggregate :class:`RiskEvaluation` over all systems.
    """
    if not systems:
        raise EvaluationError("need at least one system")
    if not (0.1 <= train_fraction <= 0.9):
        raise EvaluationError("train_fraction must be in [0.1, 0.9]")

    train_views = []
    for ds in systems:
        split = ds.period.start + train_fraction * ds.period.length
        train_views.append(truncate_system(ds, ds.period.start, split))
    try:
        model = RiskModel.fit(train_views, horizon=horizon, scopes=(Scope.NODE,))
    except RiskModelError as exc:
        raise EvaluationError(f"cannot fit on the training split: {exc}") from exc

    predictions: list[np.ndarray] = []
    labels: list[np.ndarray] = []
    h_days = horizon.days
    for ds in systems:
        split = ds.period.start + train_fraction * ds.period.length
        test_start, test_end = split, ds.period.end
        if test_end - test_start < 2 * h_days:
            continue
        times, codes, bounds = _node_events(ds)
        n_windows = int((test_end - test_start - h_days) // h_days)
        starts = test_start + h_days * np.arange(n_windows)
        # Node-major (node, window) instances: each scores the node's
        # failures in [start - h, start), labelled by one in [start, start + h).
        edges = np.stack((starts - h_days, starts, starts + h_days))
        lo, mid, hi = _window_rows(ds, bounds, edges)
        lengths = mid - lo
        events = np.arange(lengths.sum()) + np.repeat(lo - np.cumsum(lengths) + lengths, lengths)
        ages = np.repeat(np.tile(starts, ds.num_nodes), lengths) - times[events]
        scopes = np.full(events.size, SCOPE_CODES[Scope.NODE])
        predictions.append(model.score_batch(lengths, ages, scopes, codes[events]))
        labels.append(hi > mid)

    p = np.concatenate(predictions) if predictions else np.empty(0)
    if p.size < 100:
        raise EvaluationError(
            "fewer than 100 evaluation instances; use a longer record"
        )
    y = np.concatenate(labels).astype(float)
    base_rate = float(y.mean())
    if base_rate == 0.0:
        raise EvaluationError("no failures in the held-out period")
    brier_model = float(((p - y) ** 2).mean())
    brier_baseline = float(((model.baseline - y) ** 2).mean())
    skill = 1.0 - brier_model / brier_baseline if brier_baseline > 0 else 0.0
    k = max(1, p.size // 10)
    kth = np.partition(p, p.size - k)[p.size - k]
    above, tied = p > kth, p == kth
    weight = (k - int(above.sum())) / int(tied.sum())
    positives = float(y[above].sum()) + weight * float(y[tied].sum())
    lift = positives / k / base_rate
    recall = positives / float(y.sum())
    return RiskEvaluation(
        horizon=horizon,
        n_instances=int(p.size),
        base_rate=base_rate,
        brier_model=brier_model,
        brier_baseline=brier_baseline,
        skill=skill,
        lift_top_decile=lift,
        recall_top_decile=recall,
    )
