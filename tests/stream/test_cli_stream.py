"""End-to-end ``repro stream`` CLI: sources, checkpoints, verify."""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.cli import main
from repro.records.io import save_archive
from repro.stream import archive_source


@pytest.fixture(scope="module")
def archive_dir(tiny_archive, tmp_path_factory):
    path = tmp_path_factory.mktemp("stream-cli") / "archive"
    save_archive(tiny_archive, path)
    return path


def _digest(capsys) -> str:
    return _digest_in(capsys.readouterr().out)


def _digest_in(out: str) -> str:
    for line in out.splitlines():
        if line.startswith("state digest: "):
            return line.split(": ", 1)[1]
    raise AssertionError(f"no digest line in output:\n{out}")


class TestStreamCli:
    def test_archive_replay_with_verify(self, archive_dir, capsys):
        code = main(
            [
                "stream",
                "--source", "archive",
                "--archive", str(archive_dir),
                "--verify",
                "--risk-top", "0",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "replay-vs-batch equivalence holds" in out
        assert "late 0" in out and "duplicate 0" in out

    def test_kill_resume_cycle_reproduces_digest(
        self, archive_dir, tmp_path, capsys
    ):
        ckpt = tmp_path / "ckpt"
        # Reference: uninterrupted run.
        assert (
            main(
                [
                    "stream",
                    "--archive", str(archive_dir),
                    "--risk-top", "0",
                ]
            )
            == 0
        )
        reference = _digest(capsys)
        # Interrupted run: checkpoint mid-stream, no finalize.
        assert (
            main(
                [
                    "stream",
                    "--archive", str(archive_dir),
                    "--checkpoint-dir", str(ckpt),
                    "--checkpoint-every", "200",
                    "--max-events", "600",
                    "--risk-top", "0",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "state not finalized" in out
        assert (ckpt / "LATEST").exists()
        # Resume: replay the full source; dedup/late-drop skips the
        # already-applied prefix and the digest matches the reference.
        assert (
            main(
                [
                    "stream",
                    "--archive", str(archive_dir),
                    "--checkpoint-dir", str(ckpt),
                    "--resume",
                    "--verify",
                    "--risk-top", "0",
                ]
            )
            == 0
        )
        assert _digest(capsys) == reference

    def test_metrics_out_writes_snapshot(
        self, archive_dir, tmp_path, capsys
    ):
        bundle = tmp_path / "tel"
        code = main(
            [
                "stream",
                "--archive", str(archive_dir),
                "--telemetry-dir", str(bundle),
                "--risk-top", "0",
            ]
        )
        capsys.readouterr()
        assert code == 0
        manifest = telemetry.read_manifest(bundle / "manifest.json")
        assert manifest["command"] == "stream"
        assert "stream.pipeline_s" in manifest["timings_s"]
        counters = manifest["metrics"].get("counters", {})
        assert any(name.startswith("stream.") for name in counters)

    def test_trace_prints_batch_latency_histogram(
        self, archive_dir, tmp_path, capsys
    ):
        bundle = tmp_path / "tel"
        code = main(
            [
                "stream",
                "--archive", str(archive_dir),
                "--batch-size", "16",
                "--telemetry-dir", str(bundle),
                "--risk-top", "0",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        batches = int(out.split(" batches")[0].rsplit(" ", 1)[1])
        text = (bundle / "trace.txt").read_text()
        assert f"stream.batch_s: n={batches} mean=" in text
        metrics = telemetry.read_manifest(bundle / "manifest.json")["metrics"]
        summary = metrics["histograms"]["stream.batch_s"]
        assert summary["count"] == batches
        assert 0 < summary["min"] <= summary["mean"] <= summary["max"]

    def test_alerts_flag_prints_alerts(self, archive_dir, capsys):
        code = main(
            [
                "stream",
                "--archive", str(archive_dir),
                "--alerts",
                "--risk-threshold", "0.5",
                "--risk-top", "0",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "alerts fired:" in out

    def test_tail_source(self, archive_dir, tiny_archive, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        events = list(archive_source(tiny_archive))[:100]
        log.write_text(
            "".join(ev.to_json_line() + "\n" for ev in events)
        )
        code = main(
            [
                "stream",
                "--source", "tail",
                "--input", str(log),
                "--archive", str(archive_dir),
                "--risk-top", "0",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "accepted 100" in out

    def test_live_source_is_deterministic(self, capsys):
        args = [
            "stream",
            "--source", "live",
            "--live-nodes", "16",
            "--live-days", "90",
            "--seed", "7",
            "--risk-top", "0",
        ]
        assert main(args) == 0
        first = _digest(capsys)
        assert main(args) == 0
        assert _digest(capsys) == first

    @pytest.mark.parametrize("policy", ["drop-oldest", "reject"])
    def test_lossy_policy_replays_every_archive_event(
        self, archive_dir, tiny_archive, capsys, policy
    ):
        # An archive is read on demand: a small buffer bounds the
        # read-ahead, so no policy may drop or reject an event.
        args = ["stream", "--archive", str(archive_dir), "--risk-top", "0"]
        assert main(args) == 0
        reference = _digest(capsys)
        assert main(args + ["--policy", policy, "--capacity", "16"]) == 0
        out = capsys.readouterr().out
        assert f"accepted {tiny_archive.total_failures()} " in out
        assert "queue:" not in out
        assert _digest_in(out) == reference

    def test_lossy_policy_keeps_every_live_event(self, capsys):
        args = [
            "stream",
            "--source", "live",
            "--live-nodes", "16",
            "--live-days", "90",
            "--seed", "1",
            "--risk-top", "0",
        ]
        assert main(args) == 0
        reference = _digest(capsys)
        lossy = args + ["--policy", "drop-oldest", "--capacity", "8"]
        for _ in range(2):
            assert main(lossy) == 0
            out = capsys.readouterr().out
            assert "queue:" not in out
            assert _digest_in(out) == reference

    def test_usage_errors(self, archive_dir, tmp_path):
        with pytest.raises(SystemExit):
            main(["stream", "--source", "archive"])  # no --archive
        with pytest.raises(SystemExit):
            main(["stream", "--source", "tail", "--archive", str(archive_dir)])
        with pytest.raises(SystemExit):
            main(["stream", "--archive", str(archive_dir), "--resume"])
        with pytest.raises(SystemExit):
            main(
                [
                    "stream",
                    "--archive", str(archive_dir),
                    "--verify",
                    "--max-events", "10",
                ]
            )

    @pytest.mark.parametrize("lateness", ["-1", "nan"])
    def test_bad_lateness_is_a_one_line_error(self, archive_dir, lateness):
        with pytest.raises(SystemExit, match="^error: lateness_days"):
            main(
                [
                    "stream",
                    "--archive", str(archive_dir),
                    f"--lateness={lateness}",
                ]
            )
