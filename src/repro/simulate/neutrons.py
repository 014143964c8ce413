"""Synthetic neutron-monitor series (substitute for the Climax, CO feed).

The paper correlates monthly average neutron counts-per-minute with DRAM
and CPU outage probabilities (Figure 14).  The real feed is 1-minute
counts from the NOAA Climax station; what the analysis consumes is the
monthly average and its dynamic range over a solar cycle.  The synthetic
series reproduces:

* the observed level and range (~3400-4600 counts/min over the data's
  x-axis);
* the ~11-year solar-cycle modulation (cosmic-ray flux is *anti*-
  correlated with solar activity);
* short-lived Forbush decreases (sudden few-percent drops after coronal
  mass ejections, recovering over days);
* red (AR(1)) measurement noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..records.environment import NeutronSeries
from ..records.timeutil import DAYS_PER_YEAR


class NeutronModelError(ValueError):
    """Raised on invalid neutron-model parameters."""


@dataclass(frozen=True, slots=True)
class NeutronModel:
    """Parameters of the synthetic neutron-count series.

    Attributes:
        mean_counts: long-run average counts-per-minute (Climax sits
            around 4000 in the paper's Figure 14 axes).
        solar_cycle_years: solar-cycle period (typically ~11 years).
        solar_amplitude: relative amplitude of the cycle (the Figure 14
            x-range of ~3400-4600 corresponds to roughly +/- 13%).
        phase_years: cycle phase offset at t=0.
        noise_sigma: relative sigma of the AR(1) noise.
        noise_rho: AR(1) coefficient of the noise.
        forbush_rate_per_year: Forbush decreases per year.
        forbush_depth: relative depth of a Forbush decrease.
        forbush_recovery_days: e-folding recovery time of a decrease.
    """

    mean_counts: float = 4000.0
    solar_cycle_years: float = 11.0
    solar_amplitude: float = 0.13
    phase_years: float = 2.5
    noise_sigma: float = 0.01
    noise_rho: float = 0.8
    forbush_rate_per_year: float = 1.5
    forbush_depth: float = 0.07
    forbush_recovery_days: float = 8.0

    def __post_init__(self) -> None:
        if self.mean_counts <= 0:
            raise NeutronModelError("mean_counts must be positive")
        if not (0.0 <= self.solar_amplitude < 1.0):
            raise NeutronModelError("solar_amplitude must be in [0, 1)")
        if not (0.0 <= self.noise_rho < 1.0):
            raise NeutronModelError("noise_rho must be in [0, 1)")
        if self.forbush_recovery_days <= 0:
            raise NeutronModelError("forbush_recovery_days must be positive")


def daily_flux(
    duration_days: float,
    rng: np.random.Generator,
    model: NeutronModel | None = None,
) -> np.ndarray:
    """Counts-per-minute for each whole day of the period.

    Returns an array of length ``ceil(duration_days)`` with the modelled
    counts at each day index.
    """
    if duration_days <= 0:
        raise NeutronModelError("duration_days must be positive")
    m = model or NeutronModel()
    n_days = int(math.ceil(duration_days))
    t = np.arange(n_days, dtype=float)
    cycle = m.solar_amplitude * np.cos(
        2.0 * math.pi * (t / DAYS_PER_YEAR + m.phase_years) / m.solar_cycle_years
    )
    # AR(1) relative noise.
    eps = rng.normal(0.0, m.noise_sigma * math.sqrt(1 - m.noise_rho**2), n_days)
    noise = np.empty(n_days)
    state = 0.0
    for i in range(n_days):
        state = m.noise_rho * state + eps[i]
        noise[i] = state
    # Forbush decreases: sharp drop, exponential recovery.
    forbush = np.zeros(n_days)
    n_events = rng.poisson(m.forbush_rate_per_year * duration_days / DAYS_PER_YEAR)
    for onset in rng.uniform(0, duration_days, size=n_events):
        start = int(onset)
        span = np.arange(start, n_days, dtype=float)
        forbush[start:] -= m.forbush_depth * np.exp(
            -(span - start) / m.forbush_recovery_days
        )
    counts = m.mean_counts * (1.0 + cycle + noise + forbush)
    return np.maximum(counts, 0.0)


def generate_neutron_series(
    duration_days: float,
    rng: np.random.Generator,
    sample_interval_days: float = 1.0,
    model: NeutronModel | None = None,
) -> tuple[NeutronSeries, np.ndarray]:
    """Generate the neutron series and its per-day flux vector.

    Returns:
        ``(series, flux_per_day)`` where ``series`` samples the flux
        every ``sample_interval_days`` (what lands in ``neutrons.csv``)
        and ``flux_per_day`` is the *daily* counts vector used internally
        to couple CPU hazards to flux.
    """
    if sample_interval_days <= 0:
        raise NeutronModelError("sample_interval_days must be positive")
    flux = daily_flux(duration_days, rng, model)
    times = []
    t = 0.0
    while t < duration_days:
        times.append(t)
        t += sample_interval_days
    sample_times = np.array(times, dtype=float)
    days = np.minimum(sample_times.astype(np.int64), flux.size - 1)
    return NeutronSeries(sample_times, flux[days]), flux
