"""The per-event risk scorer, kept as an independent oracle.

:meth:`RiskModel.score_batch` is the one hazard kernel the package
scores with.  This module is the straightforward loop it replaced: one
``math.log`` pair per event and hazards added one event at a time.  The
kernel must match it with ``==``, so tests score the same histories
both ways.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.prediction.risk import RecentFailure, RiskModel


def reference_excess_hazard(model: RiskModel, event: RecentFailure) -> float:
    """Excess hazard one recent event contributes under ``model``."""
    p_c = model.conditional.get((event.scope, event.category))
    if p_c is None:
        return 0.0
    horizon_days = model.horizon.days
    if event.age_days >= horizon_days:
        return 0.0
    h_total = -math.log(max(1.0 - p_c, 1e-12))
    h_base = -math.log(max(1.0 - model.baseline, 1e-12))
    excess = max(h_total - h_base, 0.0)
    remaining = 1.0 - event.age_days / horizon_days
    return excess * remaining


def reference_score(
    model: RiskModel, recent: Sequence[RecentFailure] = ()
) -> float:
    """P(the node fails within the horizon), one event at a time."""
    hazard = -math.log(max(1.0 - model.baseline, 1e-12))
    for event in recent:
        hazard += reference_excess_hazard(model, event)
    return 1.0 - math.exp(-hazard)
