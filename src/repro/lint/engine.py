"""The lint driver: file discovery, rule dispatch, suppression.

:func:`run_lint` is the one entry point the CLI, CI and tests share:

1. discover ``.py`` files under the given paths (sorted, so output
   order never depends on filesystem enumeration);
2. parse each into a :class:`~repro.lint.context.ModuleContext`
   (syntax errors become ``E000`` findings rather than crashes);
3. run every rule on every file;
4. drop findings suppressed by ``# repro: noqa`` comments.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .context import ModuleContext
from .findings import Finding, Severity, sort_findings
from .registry import Rule, all_rules

#: Directory names never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", "build", "dist"}


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: list[Finding]
    suppressed: int = 0
    files: int = 0

    @property
    def errors(self) -> int:
        return sum(1 for f in self.findings if f.severity is Severity.ERROR)

    @property
    def warnings(self) -> int:
        return sum(1 for f in self.findings if f.severity is Severity.WARNING)

    @property
    def clean(self) -> bool:
        """True when no finding remains after ``noqa`` suppression."""
        return not self.findings

    def summary(self) -> str:
        parts = [
            f"{len(self.findings)} finding(s) "
            f"({self.errors} error(s), {self.warnings} warning(s)) "
            f"in {self.files} file(s)"
        ]
        if self.suppressed:
            parts.append(f"{self.suppressed} suppressed by noqa")
        return "; ".join(parts)


def discover_files(paths: Sequence[Path]) -> list[Path]:
    """Python files under ``paths``, deterministic order, deduplicated."""
    seen: dict[Path, None] = {}
    for path in paths:
        path = Path(path)
        if path.is_file():
            if path.suffix == ".py":
                seen.setdefault(path.resolve(), None)
            continue
        if not path.is_dir():
            raise FileNotFoundError(f"no such file or directory: {path}")
        for candidate in sorted(path.rglob("*.py")):
            if not _SKIP_DIRS.intersection(candidate.parts):
                seen.setdefault(candidate.resolve(), None)
    return sorted(seen)


def _relpath(path: Path, root: Path) -> str:
    """``path`` relative to ``root`` when possible, slash-normalised."""
    try:
        rel = path.resolve().relative_to(root.resolve())
        return rel.as_posix()
    except ValueError:
        return path.as_posix()


def _syntax_finding(relpath: str, exc: SyntaxError) -> Finding:
    return Finding(
        rule="E000",
        severity=Severity.ERROR,
        path=relpath,
        line=exc.lineno or 1,
        col=(exc.offset or 1) - 1,
        message=f"syntax error: {exc.msg}",
    )


def lint_file(
    path: Path,
    rules: Sequence[Rule] | None = None,
    root: Path | None = None,
) -> list[Finding]:
    """Convenience wrapper: the rules over a single file."""
    result = run_lint([Path(path)], rules=rules, root=root)
    return result.findings


def run_lint(
    paths: Sequence[Path],
    *,
    rules: Sequence[Rule] | None = None,
    root: Path | None = None,
) -> LintResult:
    """Lint ``paths`` and return the :class:`LintResult`.

    Args:
        paths: files and/or directories to analyze.
        rules: rules to run (default: every registered rule).
        root: directory findings' paths are reported relative to
            (default: the current working directory).
    """
    rules = tuple(rules) if rules is not None else all_rules()
    root = Path(root) if root is not None else Path(os.getcwd())
    files = discover_files(paths)

    contexts: list[ModuleContext] = []
    findings: list[Finding] = []
    for path in files:
        relpath = _relpath(path, root)
        try:
            contexts.append(ModuleContext.parse(path, relpath))
        except SyntaxError as exc:
            findings.append(_syntax_finding(relpath, exc))

    for rule in rules:
        for ctx in contexts:
            findings.extend(rule.check(ctx))

    by_relpath = {ctx.relpath: ctx for ctx in contexts}
    kept: list[Finding] = []
    suppressed = 0
    for finding in findings:
        ctx = by_relpath.get(finding.path)
        if ctx is not None and ctx.is_suppressed(finding.rule, finding.line):
            suppressed += 1
        else:
            kept.append(finding)

    return LintResult(
        findings=sort_findings(kept),
        suppressed=suppressed,
        files=len(files),
    )
