"""Synthetic LANL-like archive generator.

Substitute for the public LANL failure-data release (not redistributable
here): a configurable generative model of the ten paper systems with
every analysed effect injected as a documented parameter.  See
``DESIGN.md`` ("Substitutions") and :mod:`repro.simulate.config` for the
paper anchor of each parameter.
"""

from .archive import generate_system, make_archive, quick_archive
from .config import (
    ArchiveConfig,
    CATEGORY_INDEX,
    CATEGORY_ORDER,
    ConfigError,
    COSMIC_SYSTEMS,
    EffectSizes,
    FIG4_SYSTEMS,
    LANL_SYSTEMS,
    POWER_LAYOUT_SYSTEM,
    SystemSpec,
    TEMPERATURE_SYSTEM,
    USAGE_SYSTEMS,
    small_config,
)
from .neutrons import NeutronModel, NeutronModelError, daily_flux, generate_neutron_series
from .power import StressorEvent, StressorTraces, generate_stressors
from .rng import RngStreams, StreamError
from .temperature import generate_temperatures
from .usage import UsageTraces, generate_usage

__all__ = [
    "ArchiveConfig",
    "CATEGORY_INDEX",
    "CATEGORY_ORDER",
    "ConfigError",
    "COSMIC_SYSTEMS",
    "EffectSizes",
    "FIG4_SYSTEMS",
    "LANL_SYSTEMS",
    "NeutronModel",
    "NeutronModelError",
    "POWER_LAYOUT_SYSTEM",
    "RngStreams",
    "StreamError",
    "StressorEvent",
    "StressorTraces",
    "SystemSpec",
    "TEMPERATURE_SYSTEM",
    "USAGE_SYSTEMS",
    "UsageTraces",
    "daily_flux",
    "generate_neutron_series",
    "generate_stressors",
    "generate_system",
    "generate_temperatures",
    "generate_usage",
    "make_archive",
    "quick_archive",
    "small_config",
]
