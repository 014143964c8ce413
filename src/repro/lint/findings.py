"""Finding and severity types shared by every lint rule."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.Enum):
    """How serious a finding is.

    ``ERROR`` findings break a reproducibility guarantee outright;
    ``WARNING`` findings are hazards that need a human judgement call
    (and a ``# repro: noqa`` comment when deliberate).
    """

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location.

    Attributes:
        rule: rule identifier, e.g. ``DET001``.
        severity: :class:`Severity` of the rule that fired.
        path: file path, normalised relative to the lint root with
            forward slashes (stable across platforms).
        line: 1-based source line.
        col: 0-based column.
        message: human-readable description.
    """

    rule: str
    severity: Severity
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        """``path:line:col RULE [severity] message`` text form."""
        return (
            f"{self.path}:{self.line}:{self.col} {self.rule} "
            f"[{self.severity.value}] {self.message}"
        )

    def to_json(self) -> dict:
        """JSON-ready dict (used by ``--format json`` and ``--output``)."""
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


def sort_findings(findings: list[Finding]) -> list[Finding]:
    """Deterministic reporting order: path, line, column, rule."""
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))


@dataclass(slots=True)
class FindingCollector:
    """Accumulates findings for one module pass."""

    path: str
    findings: list[Finding] = field(default_factory=list)

    def add(
        self,
        rule: str,
        severity: Severity,
        node,
        message: str,
    ) -> None:
        """Record a finding anchored at an AST node."""
        self.findings.append(
            Finding(
                rule=rule,
                severity=severity,
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                message=message,
            )
        )
