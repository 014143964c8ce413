"""Rule registry: declaration, lookup and selection of lint rules.

Rules self-register at import time via the :func:`register` decorator;
:func:`all_rules` imports the rule packs on first use so the registry
is always complete without import-order gymnastics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .context import ModuleContext
from .findings import Finding, Severity

#: A rule's checker: one file in, findings out.
ModuleChecker = Callable[[ModuleContext], Iterable[Finding]]


@dataclass(frozen=True, slots=True)
class Rule:
    """Metadata plus checker for one rule ID."""

    id: str
    severity: Severity
    summary: str
    check: ModuleChecker

    @property
    def pack(self) -> str:
        """The rule pack prefix (``DET`` for ``DET001``)."""
        return self.id.rstrip("0123456789")


_REGISTRY: dict[str, Rule] = {}


def register(
    rule_id: str,
    *,
    severity: Severity,
    summary: str,
):
    """Class/function decorator registering a checker under ``rule_id``."""

    def decorator(check):
        if rule_id in _REGISTRY:
            raise ValueError(f"duplicate rule id {rule_id}")
        _REGISTRY[rule_id] = Rule(
            id=rule_id,
            severity=severity,
            summary=summary,
            check=check,
        )
        return check

    return decorator


def _load_packs() -> None:
    # Importing the package registers every rule it defines.
    from . import rules  # noqa: F401


def all_rules() -> tuple[Rule, ...]:
    """Every registered rule, in rule-ID order."""
    _load_packs()
    return tuple(_REGISTRY[k] for k in sorted(_REGISTRY))


def get_rule(rule_id: str) -> Rule:
    """Look one rule up by ID (raises ``KeyError`` if unknown)."""
    _load_packs()
    return _REGISTRY[rule_id]


def select_rules(
    only: Sequence[str] | None = None,
) -> tuple[Rule, ...]:
    """Rules filtered to ``only`` IDs/packs (``None`` = everything).

    Entries may be full IDs (``DET001``) or pack prefixes (``DET``).
    """
    rules = all_rules()
    if not only:
        return rules
    wanted = {token.upper() for token in only}
    picked = tuple(
        r for r in rules if r.id in wanted or r.pack in wanted
    )
    unknown = wanted - {r.id for r in picked} - {r.pack for r in picked}
    if unknown:
        raise KeyError(
            f"unknown rule selector(s): {', '.join(sorted(unknown))}"
        )
    return picked
