"""``repro.lint`` -- project-specific AST-based static analysis.

The reproduction's headline guarantees (bit-identical reports from a
seed, config-hash-keyed archive caching, telemetry-off byte identity)
are *statically checkable* properties of the source tree.
This package proves them with a dependency-free linter built on
:mod:`ast`:

* a rule framework -- a registry of visitors producing
  :class:`~repro.lint.findings.Finding` objects with rule ID, severity
  and location, and per-line ``# repro: noqa RULE`` suppressions, the
  one way to accept a deliberate finding;
* three rule packs:

  - **DET** (:mod:`~repro.lint.rules.det`) -- determinism: unseeded RNG
    construction outside ``simulate/rng.py``, wall-clock reads outside
    ``telemetry/``, iteration over sets / unsorted directory listings;
  - **CACHE** (:mod:`~repro.lint.rules.cache`) -- cache safety:
    in-place mutation of array arguments in functions consuming
    ``AnalysisCache`` grids; memo keys that omit a parameter;
  - **TEL** (:mod:`~repro.lint.rules.tel`) -- telemetry hygiene:
    registry mutators inside loops that bypass the no-op fast-path
    guard; import-time telemetry side effects.

Run it as ``repro lint [paths] --format text|json``
(exit 0 = clean, 1 = findings, 2 = usage error) or programmatically via
:func:`run_lint`.
"""

from __future__ import annotations

from .engine import LintResult, lint_file, run_lint
from .findings import Finding, Severity
from .registry import Rule, all_rules, get_rule, register

__all__ = [
    "Finding",
    "LintResult",
    "Rule",
    "Severity",
    "all_rules",
    "get_rule",
    "lint_file",
    "main",
    "register",
    "run_lint",
]


def main(argv: list[str] | None = None) -> int:
    """Standalone entry point (also reachable as ``repro lint``)."""
    from .cli import lint_main

    return lint_main(argv)
