"""Section IX: external factors -- cosmic radiation.

Correlates monthly average neutron counts (from the neutron-monitor
series) with monthly DRAM- and CPU-failure probabilities per system
(Figure 14).  The paper's finding: no association for DRAM failures
(ECC masks soft errors; outage-causing DRAM errors are hard errors), a
mild positive association for CPU failures in systems 2, 18 and 19.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..records.dataset import Archive, SystemDataset
from ..records.environment import monthly_means
from ..records.taxonomy import HardwareSubtype
from ..records.timeutil import Span, count_windows, window_index
from ..records.usage import sorted_distinct
from ..stats.correlation import CorrelationError, CorrelationResult, pearson, spearman


class CosmicAnalysisError(ValueError):
    """Raised when the cosmic-ray analysis cannot run."""


@dataclass(frozen=True, slots=True)
class NeutronCorrelation:
    """Figure 14 data for one system and one failure subtype.

    Attributes:
        system_id: the system.
        subtype: MEMORY (the paper's "DRAM") or CPU.
        monthly_counts: average neutron counts-per-minute per month
            (months without samples dropped).
        monthly_probability: P(a node has a subtype failure) per month.
        pearson: correlation of probability vs counts.
        spearman: rank-correlation companion.
    """

    system_id: int
    subtype: HardwareSubtype
    monthly_counts: np.ndarray
    monthly_probability: np.ndarray
    pearson: CorrelationResult | None
    spearman: CorrelationResult | None

    @property
    def associated(self) -> bool:
        """True when the Pearson correlation is positive and significant."""
        return (
            self.pearson is not None
            and self.pearson.significant
            and self.pearson.coefficient > 0
        )


def monthly_failure_probability(
    ds: SystemDataset, subtype: HardwareSubtype
) -> np.ndarray:
    """P(a random node fails with ``subtype``) for each tiled month."""
    n_months = count_windows(ds.period, Span.MONTH)
    times, nodes = ds.failure_table.select(subtype=subtype)
    idx = window_index(times, ds.period, Span.MONTH)
    valid = idx >= 0
    keys = nodes[valid] * np.int64(n_months) + idx[valid]
    probs = np.zeros(n_months)
    if keys.size:
        uniq = sorted_distinct(keys)
        months = uniq % n_months
        np.add.at(probs, months, 1.0)
    return probs / ds.num_nodes


def neutron_correlation(
    archive: Archive,
    ds: SystemDataset,
    subtype: HardwareSubtype,
) -> NeutronCorrelation:
    """Figure 14 for one system/subtype: monthly probability vs flux."""
    if not archive.neutron_series:
        raise CosmicAnalysisError("the archive carries no neutron series")
    series = archive.neutron_series
    flux = monthly_means(series.times, series.counts_per_minute, ds.period)
    prob = monthly_failure_probability(ds, subtype)
    keep = ~np.isnan(flux)
    flux, prob = flux[keep], prob[keep]
    if flux.size < 6:
        raise CosmicAnalysisError(
            "need at least 6 months with neutron samples to correlate"
        )
    try:
        r = pearson(flux, prob)
    except CorrelationError:
        r = None
    try:
        rho = spearman(flux, prob)
    except CorrelationError:
        rho = None
    return NeutronCorrelation(
        system_id=ds.system_id,
        subtype=subtype,
        monthly_counts=flux,
        monthly_probability=prob,
        pearson=r,
        spearman=rho,
    )


def cosmic_ray_analysis(
    archive: Archive,
    system_ids: Sequence[int] | None = None,
) -> list[NeutronCorrelation]:
    """The full Section IX analysis: DRAM and CPU, per chosen system.

    Defaults to every archive system; the paper uses systems 2, 18, 19
    and 20 (longest-lived / largest).
    """
    ids = list(system_ids) if system_ids is not None else list(archive.system_ids)
    out = []
    for sid in ids:
        ds = archive[sid]
        for subtype in (HardwareSubtype.MEMORY, HardwareSubtype.CPU):
            out.append(neutron_correlation(archive, ds, subtype))
    return out
