"""CLI surface of ``repro lint``: exit codes, formats, artifacts."""

from __future__ import annotations

import json
from pathlib import Path

from repro.cli import main
from repro.lint import main as lint_main

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


def test_clean_file_exits_zero(capsys):
    rc = main(
        ["lint", str(FIXTURES / "det_unseeded_good.py"), "--root", str(FIXTURES)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_findings_exit_one_with_text_output(capsys):
    rc = main(
        ["lint", str(FIXTURES / "det_unseeded_bad.py"), "--root", str(FIXTURES)]
    )
    assert rc == 1
    out = capsys.readouterr().out
    assert "DET001" in out
    assert "det_unseeded_bad.py:9" in out


def test_json_format_is_parseable(capsys):
    rc = main(
        [
            "lint",
            str(FIXTURES / "det_unseeded_bad.py"),
            "--root",
            str(FIXTURES),
            "--format",
            "json",
        ]
    )
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["findings"] == len(payload["findings"])
    first = payload["findings"][0]
    assert first["rule"] == "DET001"
    assert first["path"] == "det_unseeded_bad.py"
    assert {"line", "col", "severity", "message"} <= first.keys()


def test_output_artifact_written_even_in_text_mode(tmp_path, capsys):
    artifact = tmp_path / "findings.json"
    rc = main(
        [
            "lint",
            str(FIXTURES / "det_unseeded_bad.py"),
            "--root",
            str(FIXTURES),
            "--output",
            str(artifact),
        ]
    )
    assert rc == 1
    payload = json.loads(artifact.read_text(encoding="utf-8"))
    assert payload["summary"]["findings"] >= 1
    capsys.readouterr()


def test_select_restricts_rules(capsys):
    rc = main(
        [
            "lint",
            str(FIXTURES / "det_unseeded_bad.py"),
            "--root",
            str(FIXTURES),
            "--select",
            "CACHE",
        ]
    )
    assert rc == 0
    capsys.readouterr()


def test_unknown_select_is_usage_error(capsys):
    rc = main(
        [
            "lint",
            str(FIXTURES / "det_unseeded_good.py"),
            "--select",
            "NOPE999",
        ]
    )
    assert rc == 2
    capsys.readouterr()


def test_missing_path_is_usage_error(capsys):
    rc = main(["lint", str(FIXTURES / "no_such_dir")])
    assert rc == 2
    capsys.readouterr()


def test_list_rules(capsys):
    rc = main(["lint", "--list-rules"])
    assert rc == 0
    out = capsys.readouterr().out
    for rule_id in ("DET001", "CACHE001", "TEL001"):
        assert rule_id in out
    listed = {line.split()[0] for line in out.splitlines()[1:]}
    assert {rule_id.rstrip("0123456789") for rule_id in listed} == {
        "DET",
        "CACHE",
        "TEL",
    }


def test_standalone_entry_point(capsys):
    rc = lint_main(
        ["--root", str(FIXTURES), str(FIXTURES / "det_unseeded_good.py")]
    )
    assert rc == 0
    capsys.readouterr()


def test_tree_is_clean():
    """`repro lint src/` must pass: deliberate findings carry a noqa."""
    rc = main(["lint", str(REPO_ROOT / "src"), "--root", str(REPO_ROOT)])
    assert rc == 0
