"""Engine behaviour: discovery and suppression."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import run_lint
from repro.lint.engine import discover_files
from repro.lint.findings import Severity

FIXTURES = Path(__file__).parent / "fixtures"


class TestDiscovery:
    def test_directory_discovery_is_sorted_and_deduplicated(self):
        files = discover_files([FIXTURES, FIXTURES / "det_unseeded_bad.py"])
        assert files == sorted(set(files))
        assert any(f.name == "det_unseeded_bad.py" for f in files)
        assert all(f.suffix == ".py" for f in files)

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            discover_files([FIXTURES / "does_not_exist"])

    def test_syntax_error_becomes_E000_finding(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n", encoding="utf-8")
        result = run_lint([bad], root=tmp_path)
        assert [f.rule for f in result.findings] == ["E000"]
        assert result.findings[0].severity is Severity.ERROR


class TestSuppression:
    def test_noqa_suppresses_matching_rule_and_bare_noqa_all(self):
        result = run_lint([FIXTURES / "suppressed.py"], root=FIXTURES)
        # Line 9 (DET001 noqa'd) and line 13 (bare noqa) are suppressed;
        # line 17 carries a DET002 noqa that does NOT match its DET001.
        assert result.suppressed == 2
        assert [(f.rule, f.line) for f in result.findings] == [("DET001", 17)]

    def test_suppression_counts_feed_summary(self):
        result = run_lint([FIXTURES / "suppressed.py"], root=FIXTURES)
        assert "2 suppressed by noqa" in result.summary()

