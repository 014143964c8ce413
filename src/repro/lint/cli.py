"""Command-line front end for :mod:`repro.lint`.

Reached two ways with identical behaviour: ``repro lint ...`` (a
subcommand of the main CLI) and ``python -m repro.lint`` via
:func:`lint_main`.  Exit codes: 0 = clean, 1 = findings (or stale
baseline entries), 2 = usage error (argparse's convention).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .baseline import BaselineError, load_baseline, write_baseline
from .engine import LintResult, run_lint
from .registry import all_rules, select_rules


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the ``lint`` arguments on ``parser`` (shared with repro CLI)."""
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        default=[Path("src")],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="findings output format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        metavar="FILE",
        help="JSON baseline of grandfathered findings to subtract",
    )
    parser.add_argument(
        "--write-baseline",
        type=Path,
        default=None,
        metavar="FILE",
        help=(
            "write the current findings to FILE as a new baseline and "
            "exit 0 (run it clean, then commit the file)"
        ),
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        metavar="FILE",
        help="also write the findings as JSON to FILE (for CI artifacts)",
    )
    parser.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="RULE",
        help=(
            "restrict to rule IDs or packs (repeatable; e.g. --select "
            "DET --select TEL001)"
        ),
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        metavar="DIR",
        help="report paths relative to DIR (default: current directory)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )


def _findings_json(result: LintResult) -> dict:
    return {
        "version": 1,
        "tool": "repro.lint",
        "summary": {
            "findings": len(result.findings),
            "errors": result.errors,
            "warnings": result.warnings,
            "files": result.files,
            "suppressed": result.suppressed,
            "baselined": result.baselined,
            "stale_baseline": len(result.stale_baseline),
        },
        "findings": [f.to_json() for f in result.findings],
        "stale_baseline": [
            {"rule": rule, "path": path, "message": message, "count": count}
            for (rule, path, message), count in result.stale_baseline
        ],
    }


def _render_text(result: LintResult) -> str:
    lines = [f.render() for f in result.findings]
    for (rule, path, message), count in result.stale_baseline:
        lines.append(
            f"{path}:- {rule} [stale-baseline] {count} baselined "
            f"occurrence(s) no longer found: {message} -- regenerate "
            "with --write-baseline"
        )
    lines.append(result.summary())
    return "\n".join(lines)


def _list_rules() -> str:
    lines = ["registered rules:"]
    for rule in all_rules():
        lines.append(
            f"  {rule.id:<9s} [{rule.severity.value:<7s}] {rule.summary}"
        )
    return "\n".join(lines)


def run_lint_command(args: argparse.Namespace) -> int:
    """Execute a parsed ``lint`` invocation; returns the exit code."""
    if args.list_rules:
        print(_list_rules())
        return 0
    try:
        rules = select_rules(args.select)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    baseline = None
    if args.baseline is not None and args.write_baseline is None:
        try:
            baseline = load_baseline(args.baseline)
        except BaselineError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        result = run_lint(
            args.paths, rules=rules, baseline=baseline, root=args.root
        )
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline is not None:
        write_baseline(args.write_baseline, result.findings)
        print(
            f"wrote baseline with {len(result.findings)} finding(s) to "
            f"{args.write_baseline}"
        )
        return 0

    if args.output is not None:
        args.output.write_text(
            json.dumps(_findings_json(result), indent=2) + "\n",
            encoding="utf-8",
        )
    if args.format == "json":
        print(json.dumps(_findings_json(result), indent=2))
    else:
        print(_render_text(result))
    return 0 if result.clean else 1


def lint_main(argv: list[str] | None = None) -> int:
    """Standalone entry point (``python -m repro.lint``)."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based invariant checker for the hpcfail reproduction: "
            "determinism (DET), cache safety (CACHE) and telemetry "
            "hygiene (TEL) rules"
        ),
    )
    add_lint_arguments(parser)
    return run_lint_command(parser.parse_args(argv))
