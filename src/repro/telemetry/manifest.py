"""Run manifests: stamp generated archives and reports as artifacts.

A manifest is a small JSON document answering "what produced this
output?": the command, the configuration digest and seed (the exact key
the archive cache uses, so equal digests imply bit-identical archives),
tool and generator versions, wall-clock timings, analysis-cache
statistics and a metrics snapshot.  ``repro generate`` drops one next
to every archive it writes (``manifest.json``), the archive's
provenance; ``--telemetry-dir DIR`` on any command stamps the run the
same way in ``DIR/manifest.json``, its ``timings_s`` keyed by root span
(``report.run_s``).  Re-running with the digest and seed from a
manifest reproduces the artifact exactly.

Imports of the wider package happen lazily inside the builder so
``repro.telemetry`` stays importable from anywhere (the analysis and
simulation layers import it at module load).
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import Any, Mapping

from .metrics import metrics_enabled, metrics_snapshot

#: Bump when the manifest layout changes incompatibly.
MANIFEST_SCHEMA = 2


def _versions() -> dict[str, Any]:
    import numpy

    from .. import __version__
    from ..simulate.failures import GENERATOR_VERSION

    return {
        "repro": __version__,
        "generator": GENERATOR_VERSION,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def _config_section(config) -> dict[str, Any]:
    from ..simulate.cache import config_digest

    return {
        "seed": config.seed,
        "years": config.years,
        "scale": config.scale,
        "digest": config_digest(config),
    }


def _archive_section(archive) -> dict[str, Any]:
    from ..core.cache import cache_stats

    hits, misses, entries = cache_stats(archive)
    return {
        "systems": sorted(archive.system_ids),
        "total_failures": archive.total_failures(),
        "analysis_cache": {
            "hits": hits,
            "misses": misses,
            "entries": entries,
        },
    }


def build_manifest(
    command: str,
    *,
    config=None,
    archive=None,
    timings: Mapping[str, float] | None = None,
    extra: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble a run manifest.

    Args:
        command: the producing command (``"generate"``, ``"report"``,
            ...).
        config: the :class:`~repro.simulate.config.ArchiveConfig` the
            run used, if any -- adds seed/years/scale and the cache
            digest.
        archive: the archive produced or analysed -- adds system ids,
            failure totals and pooled analysis-cache statistics.
        timings: wall-clock timings in seconds, keyed by stage name.
        extra: any additional JSON-friendly entries, merged at top level
            (existing keys win over ``extra``).
    """
    manifest: dict[str, Any] = {
        "schema": MANIFEST_SCHEMA,
        "command": command,
        "created_unix": time.time(),
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "hostname": platform.node(),
        "pid": os.getpid(),
        "versions": _versions(),
    }
    if config is not None:
        manifest["config"] = _config_section(config)
    if archive is not None:
        manifest["archive"] = _archive_section(archive)
    if timings:
        manifest["timings_s"] = {k: float(v) for k, v in timings.items()}
    if metrics_enabled():
        manifest["metrics"] = metrics_snapshot()
    if extra:
        for key, value in extra.items():
            manifest.setdefault(key, value)
    return manifest


def write_manifest(path: Path | str, manifest: Mapping[str, Any]) -> Path:
    """Write a manifest as indented JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=2, default=str, sort_keys=True) + "\n")
    return path


def read_manifest(path: Path | str) -> dict[str, Any]:
    """Load a manifest written by :func:`write_manifest`."""
    return json.loads(Path(path).read_text())
