"""Per-rule fixture tests: each bad snippet yields exactly its expected
findings, each good twin yields none from the same pack."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import all_rules, run_lint
from repro.lint.registry import select_rules

FIXTURES = Path(__file__).parent / "fixtures"


def lint_fixture(name: str, *selectors: str):
    """Findings for one fixture file, optionally restricted to packs."""
    rules = select_rules(selectors) if selectors else None
    result = run_lint([FIXTURES / name], rules=rules, root=FIXTURES)
    return result.findings


class TestRegistry:
    def test_every_pack_registered(self):
        packs = {rule.pack for rule in all_rules()}
        assert packs == {"DET", "CACHE", "TEL"}

    def test_rule_ids_unique_and_sorted(self):
        ids = [rule.id for rule in all_rules()]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))

    def test_select_by_pack_and_id(self):
        det = select_rules(["DET"])
        assert det and all(r.pack == "DET" for r in det)
        only = select_rules(["TEL001"])
        assert [r.id for r in only] == ["TEL001"]
        with pytest.raises(KeyError):
            select_rules(["NOPE999"])


#: (fixture stem, selector, expected (rule, line) pairs)
BAD_CASES = [
    (
        "det_unseeded_bad.py",
        "DET001",
        [("DET001", 9), ("DET001", 13), ("DET001", 17), ("DET001", 21)],
    ),
    ("det_wallclock_bad.py", "DET002", [("DET002", 8), ("DET002", 9)]),
    (
        "det_setiter_bad.py",
        "DET003",
        [("DET003", 8), ("DET003", 10), ("DET003", 12)],
    ),
    ("det_truthiness_bad.py", "DET004", [("DET004", 7)]),
    (
        "cache_mutation_bad.py",
        "CACHE001",
        [("CACHE001", 10), ("CACHE001", 11), ("CACHE001", 17)],
    ),
    ("cache_key_bad.py", "CACHE002", [("CACHE002", 9)]),
    ("cache_owner_bad.py", "CACHE002", [("CACHE002", 8)]),
    ("tel_loop_bad.py", "TEL001", [("TEL001", 9), ("TEL001", 12)]),
    (
        "tel_import_bad.py",
        "TEL002",
        [("TEL002", 8), ("TEL002", 9), ("TEL002", 12)],
    ),
]


class TestBadFixtures:
    @pytest.mark.parametrize("name,selector,expected", BAD_CASES)
    def test_bad_fixture_yields_expected_findings(self, name, selector, expected):
        findings = lint_fixture(name, selector)
        got = [(f.rule, f.line) for f in findings]
        assert got == expected

    @pytest.mark.parametrize("name,selector,expected", BAD_CASES)
    def test_bad_fixture_under_all_rules_keeps_pack_findings(
        self, name, selector, expected
    ):
        # Running every rule must still produce the pack's findings
        # (other packs may stay silent but must not swallow them).
        findings = lint_fixture(name)
        got = [(f.rule, f.line) for f in findings if (f.rule, f.line) in expected]
        assert got == expected


class TestGoodFixtures:
    @pytest.mark.parametrize(
        "name,selector",
        [
            ("det_unseeded_good.py", "DET001"),
            ("det_wallclock_good.py", "DET002"),
            ("det_setiter_good.py", "DET003"),
            ("det_truthiness_good.py", "DET004"),
            ("cache_mutation_good.py", "CACHE001"),
            ("cache_key_good.py", "CACHE002"),
            ("cache_owner_good.py", "CACHE002"),
            ("tel_loop_good.py", "TEL001"),
            ("tel_import_good.py", "TEL002"),
        ],
    )
    def test_good_fixture_is_clean(self, name, selector):
        assert lint_fixture(name, selector) == []

    def test_good_fixtures_clean_under_every_rule(self):
        for name in sorted(p.name for p in FIXTURES.glob("*_good.py")):
            findings = lint_fixture(name)
            assert findings == [], f"{name}: {[f.render() for f in findings]}"


class TestFindingShape:
    def test_findings_carry_location_and_severity(self):
        findings = lint_fixture("det_unseeded_bad.py", "DET001")
        for f in findings:
            assert f.path == "det_unseeded_bad.py"
            assert f.line > 0 and f.col >= 0
            assert f.severity.value in ("error", "warning")
            assert "default_rng" in f.message or "random" in f.message
