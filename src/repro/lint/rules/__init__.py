"""Rule packs; importing this package registers every rule.

* :mod:`~repro.lint.rules.det` -- DET: determinism.
* :mod:`~repro.lint.rules.cache` -- CACHE: analysis-cache safety.
* :mod:`~repro.lint.rules.tel` -- TEL: telemetry hygiene.
* :mod:`~repro.lint.rules.conc` -- CONC: concurrency under the stream
  ingest pipeline's threads.
"""

from __future__ import annotations

from . import cache, conc, det, tel  # noqa: F401

__all__ = ["cache", "conc", "det", "tel"]
