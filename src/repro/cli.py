"""Command-line interface: ``hpcfail`` (or ``python -m repro``).

Subcommands:

* ``generate`` -- produce a synthetic LANL-like archive on disk;
* ``validate`` -- run consistency checks over an archive directory;
* ``report`` -- run every paper analysis and print the combined report;
* ``section`` -- run one paper section's analysis;
* ``advise`` -- checkpoint-interval advice from an archive's risk model;
* ``lint`` -- run the project's AST-based invariant checker
  (determinism / cache-safety / telemetry rule packs);
* ``stream`` -- online failure-log ingestion: replay an archive (or
  tail a JSONL log, or run a synthetic live feed) through the
  incremental analysis state with checkpoint/restore, alerts and
  replay-vs-batch verification.

Every subcommand takes ``--telemetry-dir DIR``: the run is traced and
its metrics recorded, and on exit (also a failed one) ``DIR`` holds
``trace.jsonl`` (one JSON object per span), ``trace.txt`` (the span
tree and the metrics listing) and ``manifest.json`` (versions, root
span timings and the metrics snapshot).  Without it a run records no
telemetry and leaves the process's telemetry state as it found it.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import telemetry
from .records.dataset import Archive
from .records.io import ArchiveIOError, load_archive, save_archive
from .records.validation import validate_archive
from .simulate.archive import make_archive
from .simulate.config import ArchiveConfig, ConfigError
from .core.report import REPORT_SECTIONS, full_report
from .prediction.checkpoint import advise
from .prediction.risk import RiskModel


def _add_generate(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("generate", help="generate a synthetic archive")
    p.add_argument("output", type=Path, help="directory to write the archive to")
    p.add_argument("--seed", type=int, default=0, help="root RNG seed")
    p.add_argument("--years", type=float, default=9.0, help="observation years")
    p.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="node-count scale factor (1.0 = full LANL size)",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help=(
            "always generate from scratch instead of reusing/updating the "
            "archive cache (REPRO_CACHE_DIR or ~/.cache/hpcfail/archives)"
        ),
    )


def _add_archive_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("archive", type=Path, help="archive directory to load")


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="hpcfail",
        description=(
            "Failure-log analysis toolkit reproducing 'Reading between the "
            "lines of failure logs' (DSN 2013)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_generate(sub)

    p = sub.add_parser("validate", help="consistency-check an archive")
    _add_archive_arg(p)

    p = sub.add_parser("report", help="run every analysis and print the report")
    _add_archive_arg(p)

    p = sub.add_parser("section", help="run one paper section's analysis")
    _add_archive_arg(p)
    p.add_argument(
        "name",
        choices=sorted(name for name, _ in REPORT_SECTIONS),
        help="section to run",
    )

    p = sub.add_parser("advise", help="checkpoint advice from the risk model")
    _add_archive_arg(p)
    p.add_argument(
        "--checkpoint-cost",
        type=float,
        default=0.25,
        help="checkpoint cost in hours (default 0.25)",
    )

    p = sub.add_parser(
        "evaluate", help="held-out evaluation of the failure-risk model"
    )
    _add_archive_arg(p)
    p.add_argument(
        "--train-fraction",
        type=float,
        default=0.5,
        help="fraction of each record used for fitting (default 0.5)",
    )

    p = sub.add_parser(
        "lint",
        help="run the repro static-analysis rules (DET/CACHE/TEL)",
    )
    from .lint.cli import add_lint_arguments

    add_lint_arguments(p)

    p = sub.add_parser(
        "stream",
        help="online ingestion with incremental analysis and checkpoints",
    )
    from .stream.cli import add_stream_arguments

    add_stream_arguments(p)

    p = sub.add_parser(
        "figures", help="render the paper's figures as ASCII charts"
    )
    _add_archive_arg(p)
    p.add_argument(
        "--figure",
        default="all",
        help=(
            "which figure to render: 1a, 1b, 2, 3, 4, 5, 6, 7, 8, 9, 10, "
            "11, 12, 13, 14 or 'all' (default)"
        ),
    )
    for p in sub.choices.values():
        p.add_argument(
            "--telemetry-dir",
            type=Path,
            default=None,
            metavar="DIR",
            help=(
                "trace the run and write trace.jsonl, trace.txt and "
                "manifest.json (with the metrics snapshot) to DIR on exit"
            ),
        )
    return parser


def load_archive_or_exit(path: Path) -> Archive:
    """The archive at ``path``; a missing or malformed one ends the run
    with a one-line error instead of a traceback."""
    if not path.exists():
        raise SystemExit(f"error: archive directory {path} does not exist")
    try:
        return load_archive(path)
    except ArchiveIOError as exc:
        raise SystemExit(f"error: {exc}") from None


def _write_telemetry(
    args: argparse.Namespace, roots: list[telemetry.Span]
) -> None:
    """Write the run's trace, its text view and its manifest to
    ``--telemetry-dir``; ``timings_s`` sums the root spans by name."""
    directory = args.telemetry_dir
    snapshot = telemetry.metrics_snapshot()
    telemetry.write_spans_jsonl(roots, directory / "trace.jsonl")
    (directory / "trace.txt").write_text(
        telemetry.render_span_tree(roots)
        + "\n"
        + telemetry.render_metrics(snapshot)
        + "\n"
    )
    timings: dict[str, float] = {}
    for root in roots:
        key = f"{root.name}_s"
        timings[key] = timings.get(key, 0.0) + root.duration
    archive = getattr(args, "archive", None)
    telemetry.write_manifest(
        directory / "manifest.json",
        telemetry.build_manifest(
            args.command,
            timings=timings,
            extra=None if archive is None else {"archive_path": str(archive)},
        ),
    )


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.telemetry_dir is None:
        with telemetry.disabled():
            return _dispatch(args)
    metrics_were_on = telemetry.set_metrics_enabled(True)
    if not metrics_were_on:
        # The registry is process-global: a run that turns metrics on
        # records from an empty one, not on top of an earlier run's.
        telemetry.reset_metrics()
    try:
        with telemetry.trace(args.command) as run_trace:
            try:
                return _dispatch(args)
            finally:
                # Also on SystemExit: a failed run's trace is the one
                # worth reading.
                _write_telemetry(args, run_trace.roots)
    finally:
        telemetry.set_metrics_enabled(metrics_were_on)


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "lint":
        from .lint.cli import run_lint_command

        return run_lint_command(args)
    if args.command == "stream":
        from .stream.cli import run_stream_command

        return run_stream_command(args)
    if args.command == "generate":
        try:
            config = ArchiveConfig(seed=args.seed, years=args.years, scale=args.scale)
        except ConfigError as exc:
            raise SystemExit(f"error: {exc}")
        # Timed through spans (real even without --telemetry-dir), so
        # the wall clock stays inside telemetry.
        with telemetry.ensure_trace():
            with telemetry.span("generate.archive") as generate_span:
                if args.no_cache:
                    archive = make_archive(config)
                else:
                    from .simulate.cache import cached_make_archive

                    archive = cached_make_archive(config)
            with telemetry.span("generate.save") as save_span:
                save_archive(archive, args.output)
        telemetry.write_manifest(
            args.output / "manifest.json",
            telemetry.build_manifest(
                "generate",
                config=config,
                archive=archive,
                timings={
                    "generate_s": generate_span.duration,
                    "save_s": save_span.duration,
                },
                extra={
                    "cached": not args.no_cache,
                    "output": str(args.output),
                },
            ),
        )
        total = archive.total_failures()
        print(
            f"wrote {len(archive)} systems, {total} failures to {args.output}"
        )
        return 0
    if args.command == "validate":
        report = validate_archive(load_archive_or_exit(args.archive))
        print(report.render())
        return 0 if report.ok else 1
    if args.command == "report":
        print(full_report(load_archive_or_exit(args.archive)))
        return 0
    if args.command == "section":
        render = dict(REPORT_SECTIONS)[args.name]
        print(render(load_archive_or_exit(args.archive), (18, 19, 20)))
        return 0
    if args.command == "evaluate":
        from .prediction.evaluation import EvaluationError, evaluate_risk_model

        archive = load_archive_or_exit(args.archive)
        try:
            ev = evaluate_risk_model(
                list(archive), train_fraction=args.train_fraction
            )
        except EvaluationError as exc:
            raise SystemExit(f"error: {exc}")
        print(
            f"held-out evaluation over {ev.n_instances} (node, {ev.horizon}) "
            "windows:\n"
            f"  base failure rate:      {ev.base_rate:.3%}\n"
            f"  Brier score (model):    {ev.brier_model:.5f}\n"
            f"  Brier score (baseline): {ev.brier_baseline:.5f}\n"
            f"  skill vs baseline:      {ev.skill:+.3f}\n"
            f"  lift @ top decile:      {ev.lift_top_decile:.1f}x "
            f"(captures {ev.recall_top_decile:.0%} of failures)"
        )
        return 0
    if args.command == "figures":
        from .records.dataset import HardwareGroup
        from . import viz

        archive = load_archive_or_exit(args.archive)
        if args.figure == "all":
            print(viz.render_all_figures(archive))
            return 0
        renderers = {
            "1a": lambda: viz.figure1a(archive, HardwareGroup.GROUP1)
            + "\n\n"
            + viz.figure1a(archive, HardwareGroup.GROUP2),
            "1b": lambda: viz.figure1b(archive, HardwareGroup.GROUP1)
            + "\n\n"
            + viz.figure1b(archive, HardwareGroup.GROUP2),
            "2": lambda: viz.figure2(archive),
            "3": lambda: viz.figure3(archive),
            "4": lambda: viz.figure4(archive),
            "5": lambda: viz.figure5(archive),
            "6": lambda: viz.figure6(archive),
            "7": lambda: viz.figure7(archive),
            "8": lambda: viz.figure8(archive),
            "9": lambda: viz.figure9(archive),
            "10": lambda: viz.figure10(archive),
            "11": lambda: viz.figure11(archive),
            "12": lambda: viz.figure12(archive),
            "13": lambda: viz.figure13(archive),
            "14": lambda: viz.figure14(archive),
        }
        if args.figure not in renderers:
            raise SystemExit(
                f"error: unknown figure {args.figure!r}; choose from "
                f"{', '.join(sorted(renderers))} or 'all'"
            )
        print(renderers[args.figure]())
        return 0
    if args.command == "advise":
        archive = load_archive_or_exit(args.archive)
        model = RiskModel.fit(list(archive))
        mtbf_hours = (
            model.horizon.days * 24.0
        ) / max(-math.log(1 - model.baseline), 1e-12)
        advice = advise(args.checkpoint_cost, mtbf_hours)
        print(
            f"baseline weekly failure probability: {model.baseline:.4f}\n"
            f"implied node MTBF: {advice.mtbf_hours:.0f} h\n"
            f"Young interval: {advice.young_hours:.1f} h\n"
            f"Daly interval: {advice.daly_hours:.1f} h "
            f"(efficiency {advice.efficiency_at_daly:.1%})\n"
            "highest-risk triggers:"
        )
        for scope, cat, factor in model.rank_factors()[:5]:
            print(f"  {scope.value:<7s} {cat.value:<6s} {factor:5.1f}x baseline")
        return 0
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
