"""Rule packs; importing this package registers every rule.

* :mod:`~repro.lint.rules.det` -- DET: determinism.
* :mod:`~repro.lint.rules.cache` -- CACHE: analysis-cache safety.
* :mod:`~repro.lint.rules.tel` -- TEL: telemetry hygiene.
"""

from __future__ import annotations

from . import cache, det, tel  # noqa: F401

__all__ = ["cache", "det", "tel"]
