"""hpcfail: a failure-log analysis toolkit for HPC reliability data.

Reproduces "Reading between the lines of failure logs: Understanding how
HPC systems fail" (El-Sayed & Schroeder, DSN 2013) as a production
library:

* :mod:`repro.records` -- the LANL-style data model and CSV archive I/O;
* :mod:`repro.stats` -- the statistics substrate (proportion tests,
  chi-square, correlation, Poisson/NB GLMs, ANOVA);
* :mod:`repro.simulate` -- a synthetic LANL-like archive generator with
  every paper effect injected as a documented parameter;
* :mod:`repro.core` -- the paper's analyses, one module per section;
* :mod:`repro.prediction` -- risk scoring and checkpoint advice built on
  the findings;
* :mod:`repro.telemetry` -- opt-in tracing, metrics and run manifests
  across the generate -> analyze -> report pipeline.

Quickstart::

    from repro import quick_archive, full_report
    archive = quick_archive(seed=0)
    print(full_report(archive))
"""

from . import telemetry
from .core.cache import cache_stats, get_cache
from .core.report import full_report, profiled_full_report
from .records.dataset import Archive, HardwareGroup, SystemDataset
from .records.io import load_archive, save_archive
from .records.taxonomy import Category
from .records.timeutil import Span
from .records.validation import validate_archive
from .simulate.archive import make_archive, quick_archive
from .simulate.config import ArchiveConfig, EffectSizes, small_config

__version__ = "1.0.0"

__all__ = [
    "Archive",
    "ArchiveConfig",
    "Category",
    "EffectSizes",
    "HardwareGroup",
    "Span",
    "SystemDataset",
    "__version__",
    "cache_stats",
    "full_report",
    "get_cache",
    "load_archive",
    "make_archive",
    "profiled_full_report",
    "quick_archive",
    "save_archive",
    "small_config",
    "telemetry",
    "validate_archive",
]
