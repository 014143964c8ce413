"""Tests for the command-line interface."""

import shutil
from pathlib import Path

import pytest

from repro import telemetry
from repro.cli import build_parser, main
from repro.records.io import save_archive


@pytest.fixture(scope="module")
def archive_dir(tiny_archive, tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("cli") / "archive"
    save_archive(tiny_archive, path)
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "/tmp/x"])
        assert args.scale == 1.0
        assert args.years == 9.0

    def test_no_command_has_a_workers_option(self):
        # Reports render their sections serially and generation runs in
        # one process, so no command takes a worker count.
        for command in ("report", "generate"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "/tmp/x", "--workers", "2"])


class TestCommands:
    def test_generate(self, tmp_path, capsys):
        out = tmp_path / "arch"
        code = main(
            [
                "generate",
                str(out),
                "--seed",
                "5",
                "--years",
                "1.5",
                "--scale",
                "0.02",
            ]
        )
        assert code == 0
        assert (out / "systems.csv").exists()
        assert "wrote 11 systems" in capsys.readouterr().out

    def test_validate(self, archive_dir, capsys):
        code = main(["validate", str(archive_dir)])
        assert code == 0
        assert "validation" in capsys.readouterr().out or True

    def test_report(self, archive_dir, capsys):
        code = main(["report", str(archive_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Section III" in out
        assert "Section X" in out

    def test_section(self, archive_dir, capsys):
        code = main(["section", str(archive_dir), "power"])
        assert code == 0
        assert "Figure 9" in capsys.readouterr().out

    def test_section_rejects_unknown(self, archive_dir):
        with pytest.raises(SystemExit):
            main(["section", str(archive_dir), "bogus"])

    def test_advise(self, archive_dir, capsys):
        code = main(["advise", str(archive_dir), "--checkpoint-cost", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Daly interval" in out
        assert "highest-risk triggers" in out

    def test_missing_archive(self, tmp_path):
        with pytest.raises(SystemExit, match="does not exist"):
            main(["report", str(tmp_path / "nope")])

    def test_generate_rejects_nan_years(self, tmp_path):
        with pytest.raises(SystemExit, match="^error: years must be positive"):
            main(["generate", str(tmp_path / "arch"), "--years", "nan"])
        assert not (tmp_path / "arch").exists()


class TestMalformedArchive:
    """A malformed archive ends every command that loads one with the
    loader's one-line error, not a traceback."""

    @pytest.fixture()
    def malformed(self, archive_dir, tmp_path) -> Path:
        path = tmp_path / "malformed"
        shutil.copytree(archive_dir, path)
        failures = path / "system-2" / "failures.csv"
        lines = failures.read_text().splitlines()
        fields = lines[1].split(",")
        fields[2] = "NOPE"
        lines[1] = ",".join(fields)
        failures.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize(
        "command", [["report"], ["validate"], ["stream", "--archive"]]
    )
    def test_one_line_error(self, malformed, command, capsys):
        with pytest.raises(SystemExit) as info:
            main([*command, str(malformed)])
        message = str(info.value.code)
        failures = malformed / "system-2" / "failures.csv"
        assert message.startswith(f"error: {failures}:2: ")
        assert "NOPE" in message and "\n" not in message
        capsys.readouterr()

    @pytest.fixture()
    def not_utf8(self, archive_dir, tmp_path) -> Path:
        """The archive with one byte that is not UTF-8 at the end of
        row 2 of a failure table."""
        path = tmp_path / "not-utf8"
        shutil.copytree(archive_dir, path)
        failures = path / "system-2" / "failures.csv"
        lines = failures.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1].rstrip(b"\r\n") + b"\xff\r\n"
        failures.write_bytes(b"".join(lines))
        return path

    @pytest.mark.parametrize(
        "command", [["report"], ["validate"], ["stream", "--archive"]]
    )
    def test_one_line_error_on_bytes_that_are_not_utf8(
        self, not_utf8, command, capsys
    ):
        with pytest.raises(SystemExit) as info:
            main([*command, str(not_utf8)])
        message = str(info.value.code)
        failures = not_utf8 / "system-2" / "failures.csv"
        assert message == f"error: {failures}: not UTF-8 text (invalid start byte)"
        assert isinstance(info.value.__context__.__cause__, UnicodeDecodeError)
        capsys.readouterr()


class TestNewCommands:
    def test_figures_all(self, archive_dir, capsys):
        code = main(["figures", str(archive_dir), "--figure", "9"])
        assert code == 0
        assert "environmental failures" in capsys.readouterr().out

    def test_figures_specific(self, archive_dir, capsys):
        code = main(["figures", str(archive_dir), "--figure", "4"])
        assert code == 0
        assert "failures per node" in capsys.readouterr().out

    def test_figures_unknown(self, archive_dir):
        with pytest.raises(SystemExit, match="unknown figure"):
            main(["figures", str(archive_dir), "--figure", "99"])

    def test_section_interarrival(self, archive_dir, capsys):
        code = main(["section", str(archive_dir), "interarrival"])
        assert code == 0
        assert "inter-arrival" in capsys.readouterr().out

    def test_section_downtime(self, archive_dir, capsys):
        code = main(["section", str(archive_dir), "downtime"])
        assert code == 0
        assert "MTTR" in capsys.readouterr().out

    def test_section_lifecycle(self, archive_dir, capsys):
        code = main(["section", str(archive_dir), "lifecycle"])
        assert code == 0
        assert "age" in capsys.readouterr().out

    def test_evaluate(self, archive_dir, capsys):
        code = main(["evaluate", str(archive_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Brier" in out
        assert "lift" in out


BUNDLE = ("trace.jsonl", "trace.txt", "manifest.json")


class TestTelemetryCli:
    @pytest.fixture(autouse=True)
    def clean_telemetry(self):
        yield
        telemetry.finish_trace()
        telemetry.set_metrics_enabled(False)
        telemetry.reset_metrics()

    def test_report_trace_stdout_byte_identical(
        self, archive_dir, tmp_path, capsys
    ):
        assert main(["report", str(archive_dir)]) == 0
        plain = capsys.readouterr().out
        bundle = tmp_path / "tel"
        assert main(
            ["report", str(archive_dir), "--telemetry-dir", str(bundle)]
        ) == 0
        captured = capsys.readouterr()
        assert captured.out == plain  # telemetry never touches stdout
        assert captured.err == ""
        text = (bundle / "trace.txt").read_text()
        assert text.startswith("span tree:")
        assert "io.load_archive" in text
        assert text.count("report.section") == 10
        assert "metrics:" in text
        assert "analysis_cache." in text

    def test_report_metrics_out(self, archive_dir, tmp_path, capsys):
        bundle = tmp_path / "tel"
        code = main(["report", str(archive_dir), "--telemetry-dir", str(bundle)])
        assert code == 0
        capsys.readouterr()
        snapshot = telemetry.read_manifest(bundle / "manifest.json")["metrics"]
        assert snapshot["counters"]["analysis_cache.misses"] > 0

    @pytest.mark.parametrize("metrics_on", [False, True])
    def test_repeated_runs_leave_no_metrics_behind(
        self, archive_dir, tmp_path, capsys, metrics_on
    ):
        # Each run turning metrics on records from an empty registry,
        # and hands the recording flag back as it found it.
        telemetry.set_metrics_enabled(metrics_on)
        snapshots = []
        for run in range(2):
            bundle = tmp_path / f"tel-{run}"
            assert main(
                ["report", str(archive_dir), "--telemetry-dir", str(bundle)]
            ) == 0
            assert telemetry.metrics_enabled() is metrics_on
            manifest = telemetry.read_manifest(bundle / "manifest.json")
            snapshots.append(manifest["metrics"])
        capsys.readouterr()
        misses = [s["counters"]["analysis_cache.misses"] for s in snapshots]
        assert misses[0] > 0
        if metrics_on:
            # Metrics the caller turned on keep the caller's registry.
            assert misses[1] == 2 * misses[0]
        else:
            assert snapshots[0] == snapshots[1]

    def test_report_manifest(self, archive_dir, tmp_path, capsys):
        bundle = tmp_path / "tel"
        code = main(["report", str(archive_dir), "--telemetry-dir", str(bundle)])
        assert code == 0
        capsys.readouterr()
        manifest = telemetry.read_manifest(bundle / "manifest.json")
        assert manifest["schema"] == 2
        assert manifest["command"] == "report"
        assert manifest["archive_path"] == str(archive_dir)
        # One timing per root span; per-section times are in trace.jsonl.
        assert set(manifest["timings_s"]) == {
            "io.load_archive_s",
            "report.run_s",
        }
        assert all(s > 0 for s in manifest["timings_s"].values())
        assert manifest["metrics"]["counters"]["analysis_cache.misses"] > 0
        assert "analysis_cache_delta" not in manifest
        assert "workers" not in manifest

    def test_generate_writes_manifest(self, tmp_path, capsys):
        out = tmp_path / "arch"
        code = main(
            [
                "generate",
                str(out),
                "--seed",
                "7",
                "--years",
                "1.0",
                "--scale",
                "0.02",
                "--no-cache",
            ]
        )
        assert code == 0
        capsys.readouterr()
        manifest = telemetry.read_manifest(out / "manifest.json")
        assert manifest["command"] == "generate"
        assert manifest["config"]["seed"] == 7
        assert len(manifest["config"]["digest"]) == 64
        assert manifest["archive"]["total_failures"] > 0
        assert set(manifest["timings_s"]) == {"generate_s", "save_s"}
        assert all(s > 0 for s in manifest["timings_s"].values())

    def test_trace_jsonl_names_report_spans(
        self, archive_dir, tmp_path, capsys
    ):
        bundle = tmp_path / "tel"
        code = main(["report", str(archive_dir), "--telemetry-dir", str(bundle)])
        assert code == 0
        capsys.readouterr()
        records = telemetry.read_spans_jsonl(bundle / "trace.jsonl")
        names = {r["name"] for r in records}
        assert {"io.load_archive", "report.run", "report.section"} <= names

    @pytest.mark.parametrize("command", ["generate", "report", "stream"])
    def test_every_command_writes_the_bundle(
        self, archive_dir, tmp_path, capsys, command
    ):
        bundle = tmp_path / "tel"
        argv = {
            "generate": [
                "generate", str(tmp_path / "arch"), "--seed", "3",
                "--years", "1.0", "--scale", "0.02", "--no-cache",
            ],
            "report": ["report", str(archive_dir)],
            "stream": ["stream", "--archive", str(archive_dir)],
        }[command]
        assert main(argv + ["--telemetry-dir", str(bundle)]) == 0
        capsys.readouterr()
        assert sorted(p.name for p in bundle.iterdir()) == sorted(BUNDLE)
        manifest = telemetry.read_manifest(bundle / "manifest.json")
        assert manifest["command"] == command
        assert manifest["timings_s"]
        assert telemetry.read_spans_jsonl(bundle / "trace.jsonl")
        if command == "generate":
            # The archive's own manifest keeps its provenance keys.
            beside = telemetry.read_manifest(tmp_path / "arch" / "manifest.json")
            assert set(beside["timings_s"]) == {"generate_s", "save_s"}
            assert {"config", "archive", "cached", "output"} <= beside.keys()

    def test_failed_run_still_writes_the_bundle(self, tmp_path, capsys):
        bundle = tmp_path / "tel"
        with pytest.raises(SystemExit, match="does not exist"):
            main(
                [
                    "report",
                    str(tmp_path / "nope"),
                    "--telemetry-dir",
                    str(bundle),
                ]
            )
        assert sorted(p.name for p in bundle.iterdir()) == sorted(BUNDLE)
        manifest = telemetry.read_manifest(bundle / "manifest.json")
        assert manifest["command"] == "report"
        assert manifest["archive_path"] == str(tmp_path / "nope")

    @pytest.mark.parametrize("traced_run", [False, True])
    @pytest.mark.parametrize("metrics_on", [False, True])
    def test_run_leaves_the_callers_trace_alone(
        self, archive_dir, tmp_path, capsys, traced_run, metrics_on
    ):
        caller = telemetry.start_trace()
        telemetry.set_metrics_enabled(metrics_on)
        before = telemetry.metrics_snapshot()
        argv = ["validate", str(archive_dir)]
        if traced_run:
            argv += ["--telemetry-dir", str(tmp_path / "tel")]
        assert main(argv) == 0
        capsys.readouterr()
        assert telemetry.current_trace() is caller
        assert caller.roots == []
        assert telemetry.metrics_enabled() is metrics_on
        if not traced_run:
            # An untraced run records nothing into the caller's registry.
            assert telemetry.metrics_snapshot() == before
