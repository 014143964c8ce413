"""Section VIII: how does temperature affect failures?

Two complementary analyses:

* **Regressions (VIII-A/B)** -- Poisson and negative-binomial models of
  per-node hardware-failure counts as functions of the node's average /
  maximum / variance of temperature (:func:`temperature_regressions`).
  The paper (agreeing with [3]) finds none of them significant, for
  hardware failures overall and for CPU/DRAM failures separately.
* **Fan/chiller impact (VIII-B, Figure 13)** -- window probabilities of
  hardware failures after fan and chiller failures
  (:func:`fan_chiller_impact`, :func:`thermal_component_impact`): fans
  ~40X on the following day, chillers 6-9X; per component, everything
  except CPUs reacts, with MSC boards/midplanes >100X.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..records.dataset import SystemDataset
from ..records.taxonomy import (
    Category,
    EnvironmentSubtype,
    HardwareSubtype,
    Subtype,
)
from ..records.timeutil import ALL_SPANS, Span
from ..stats.glm import GLMError, GLMResult, fit_negative_binomial, fit_poisson
from .cache import get_cache
from .power import PowerImpactCell, _impact_cells


class TemperatureAnalysisError(ValueError):
    """Raised when a system lacks the data a temperature analysis needs."""


#: The two temperature-excursion triggers of Figure 13.
THERMAL_TRIGGERS: tuple[Subtype, ...] = (
    EnvironmentSubtype.CHILLER,
    HardwareSubtype.FAN,
)

#: Hardware components reported in Figure 13 (right).
FIG13_COMPONENTS: tuple[HardwareSubtype, ...] = (
    HardwareSubtype.POWER_SUPPLY,
    HardwareSubtype.MEMORY,
    HardwareSubtype.NODE_BOARD,
    HardwareSubtype.FAN,
    HardwareSubtype.CPU,
    HardwareSubtype.MSC_BOARD,
    HardwareSubtype.MIDPLANE,
)

_TEMP_PREDICTORS = ("avg_temp", "max_temp", "temp_var")


@dataclass(frozen=True, slots=True)
class TemperatureRegressionResult:
    """Section VIII-A/B regressions for one target failure type.

    Attributes:
        system_id: the system (the paper only has data for system 20).
        target: the response -- hardware failures overall, or a specific
            component (CPU / MEMORY).
        poisson: fitted Poisson model over avg/max/var temperature.
        negbin: fitted negative-binomial model over the same design.
        any_significant: True if any temperature predictor is significant
            at 1% in either model (the paper's answer: no).
    """

    system_id: int
    target: Category | Subtype
    poisson: GLMResult
    negbin: GLMResult

    @property
    def any_significant(self) -> bool:
        """True if any temperature predictor reaches 1% in either model.

        Note the Poisson model alone can flag predictors spuriously on
        overdispersed per-node counts (node 0 is a huge outlier) -- the
        paper sees exactly this with ``max_temp`` in its Table II, and
        the significance evaporates under the negative binomial.  Use
        :attr:`robustly_significant` for the overdispersion-safe answer.
        """
        for model in (self.poisson, self.negbin):
            for name in _TEMP_PREDICTORS:
                if model.coefficient(name).significant(alpha=0.01):
                    return True
        return False

    @property
    def robustly_significant(self) -> bool:
        """True if a temperature predictor is significant in BOTH models.

        This is the criterion the paper effectively applies when it
        concludes temperature is insignificant: an effect must survive
        the overdispersion-robust negative-binomial fit.
        """
        for name in _TEMP_PREDICTORS:
            if self.poisson.coefficient(name).significant(
                alpha=0.01
            ) and self.negbin.coefficient(name).significant(alpha=0.01):
                return True
        return False


def _temperature_design(
    ds: SystemDataset,
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Per-node (avg, max, var) design matrix; drops unsampled nodes."""
    summaries = get_cache(ds).temperature_summaries()
    rows = []
    kept_nodes = []
    for s in summaries:
        if s.num_readings == 0:
            continue
        rows.append([s.avg_temp, s.max_temp, s.temp_var])
        kept_nodes.append(s.node_id)
    if len(rows) < 10:
        raise TemperatureAnalysisError(
            "need temperature readings on at least 10 nodes to regress"
        )
    X = np.asarray(rows, dtype=float)
    # Center predictors: keeps the intercept interpretable and the IRLS
    # well-conditioned without changing slopes or p-values.
    X = X - X.mean(axis=0)
    return X, np.asarray(kept_nodes, dtype=np.int64), kept_nodes


def temperature_regressions(
    ds: SystemDataset,
    target: Category | Subtype = Category.HARDWARE,
) -> TemperatureRegressionResult:
    """Fit the Section VIII Poisson and NB temperature regressions.

    Args:
        ds: a system with temperature readings (LANL: system 20).
        target: response failure type -- ``Category.HARDWARE`` for the
            headline analysis, ``HardwareSubtype.CPU`` / ``MEMORY`` for
            the per-component repeats.

    Each target's fits are memoized on the system's analysis cache, and
    so is a failed fit: its error is memoized and raised again on every
    call.
    """
    if not ds.has_temperature:
        raise TemperatureAnalysisError(
            f"system {ds.system_id} has no temperature readings"
        )
    result = get_cache(ds).summary(
        ("temperature_regressions", target),
        lambda: _temperature_regressions_or_error(ds, target),
    )
    if isinstance(result, Exception):
        raise result.with_traceback(None)
    return result


def _temperature_regressions_or_error(
    ds: SystemDataset, target: Category | Subtype
) -> TemperatureRegressionResult | TemperatureAnalysisError | GLMError:
    try:
        return _temperature_regressions(ds, target)
    except (TemperatureAnalysisError, GLMError) as exc:
        return exc


def _temperature_regressions(
    ds: SystemDataset, target: Category | Subtype
) -> TemperatureRegressionResult:
    X, node_ids, _ = _temperature_design(ds)
    t_cat = target if isinstance(target, Category) else None
    t_sub = None if isinstance(target, Category) else target
    _, fail_nodes = ds.failure_table.select(category=t_cat, subtype=t_sub)
    counts = np.zeros(ds.num_nodes, dtype=np.int64)
    np.add.at(counts, fail_nodes, 1)
    y = counts[node_ids]
    names = list(_TEMP_PREDICTORS)
    return TemperatureRegressionResult(
        system_id=ds.system_id,
        target=target,
        poisson=fit_poisson(X, y, names=names),
        negbin=fit_negative_binomial(X, y, names=names),
    )


def fan_chiller_impact(
    systems: Sequence[SystemDataset],
    spans: Sequence[Span] = ALL_SPANS,
) -> list[PowerImpactCell]:
    """Figure 13 (left): P(hardware failure after fan/chiller failures).

    The paper: fans ~40X on the following day; chillers 6-9X across
    timespans.
    """
    return _impact_cells(systems, THERMAL_TRIGGERS, [Category.HARDWARE], spans)


def thermal_component_impact(
    systems: Sequence[SystemDataset],
    components: Sequence[HardwareSubtype] = FIG13_COMPONENTS,
) -> list[PowerImpactCell]:
    """Figure 13 (right): per-component month probabilities after
    fan/chiller failures.

    The paper: every component except CPUs reacts to fan failures
    (memory/node boards/power supplies 10-20X, fans ~120X, MSC boards and
    midplanes also large); chillers move only memory (5.3X) and node
    boards (10.8X).
    """
    return _impact_cells(
        systems, THERMAL_TRIGGERS, list(components), [Span.MONTH]
    )
