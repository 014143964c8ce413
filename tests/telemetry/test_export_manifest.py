"""Exporters (tree text, JSONL, metrics JSON) and run manifests."""

from __future__ import annotations

import json

import pytest

from repro import telemetry
from repro.simulate.config import small_config


@pytest.fixture()
def sample_roots():
    with telemetry.trace() as tr:
        with telemetry.span("parent", stage="outer"):
            with telemetry.span("child.one"):
                pass
            with telemetry.span("child.two"):
                with pytest.raises(RuntimeError):
                    with telemetry.span("failing"):
                        raise RuntimeError("x")
    return tr.roots


class TestSpanTree:
    def test_render_contents(self, sample_roots):
        text = telemetry.render_span_tree(sample_roots)
        lines = text.splitlines()
        assert lines[0] == "span tree:"
        assert "- parent" in lines[1]
        assert "[stage=outer]" in lines[1]
        assert any("- child.one" in line for line in lines)
        assert any("! failing" in line for line in lines)  # error mark
        # deeper spans are indented further
        depth = {line.strip().split()[1]: len(line) - len(line.lstrip()) for line in lines[1:]}
        assert depth["failing"] > depth["child.two"] > depth["parent"]

    def test_render_empty(self):
        assert "(no spans recorded)" in telemetry.render_span_tree([])


class TestJsonl:
    def test_round_trip_and_parent_links(self, sample_roots, tmp_path):
        path = tmp_path / "trace.jsonl"
        telemetry.write_spans_jsonl(sample_roots, path)
        records = telemetry.read_spans_jsonl(path)
        assert len(records) == 4
        by_name = {r["name"]: r for r in records}
        assert by_name["parent"]["parent"] is None
        assert by_name["child.one"]["parent"] == by_name["parent"]["id"]
        assert by_name["failing"]["parent"] == by_name["child.two"]["id"]
        assert by_name["failing"]["status"] == "error"
        assert by_name["parent"]["attrs"] == {"stage": "outer"}
        # ids are depth-first: every parent id precedes its children's
        for r in records:
            if r["parent"] is not None:
                assert r["parent"] < r["id"]
        assert all(r["duration_s"] is not None for r in records)


class TestMetricsExport:
    def test_render_and_write(self, tmp_path):
        telemetry.enable_metrics()
        telemetry.counter_add("a.count", 2, kind="x")
        telemetry.gauge_set("b.level", 1.5)
        telemetry.observe("c.time", 0.25)
        text = telemetry.render_metrics()
        assert "a.count{kind=x} = 2" in text
        assert "b.level = 1.5" in text
        assert "c.time: n=1" in text

        path = telemetry.write_metrics_json(tmp_path / "m.json")
        snap = json.loads(path.read_text())
        assert snap["counters"]["a.count{kind=x}"] == 2
        assert snap["histograms"]["c.time"]["count"] == 1
        assert snap["histograms"]["c.time"]["max"] == 0.25

    def test_render_empty(self):
        assert "(no metrics recorded)" in telemetry.render_metrics(
            {"counters": {}, "gauges": {}, "histograms": {}}
        )


class TestManifest:
    def test_build_sections(self, tiny_archive):
        from repro.simulate.cache import config_digest

        config = small_config(seed=3, years=2.0, scale=0.03)
        manifest = telemetry.build_manifest(
            "generate",
            config=config,
            archive=tiny_archive,
            timings={"generate_s": 1.25},
            extra={"workers": 2, "command": "ignored"},
        )
        assert manifest["schema"] == telemetry.MANIFEST_SCHEMA
        assert manifest["command"] == "generate"  # existing keys beat extra
        assert manifest["workers"] == 2
        assert manifest["config"]["seed"] == 3
        assert manifest["config"]["digest"] == config_digest(config)
        assert manifest["archive"]["total_failures"] == (
            tiny_archive.total_failures()
        )
        assert set(manifest["archive"]["analysis_cache"]) == {
            "hits",
            "misses",
            "entries",
        }
        assert manifest["timings_s"] == {"generate_s": 1.25}
        assert manifest["versions"]["python"]
        assert "metrics" not in manifest  # metrics disabled

    def test_metrics_section_when_enabled(self):
        telemetry.enable_metrics()
        telemetry.counter_add("seen", 1)
        manifest = telemetry.build_manifest("report")
        assert manifest["metrics"]["counters"]["seen"] == 1

    def test_write_read_round_trip(self, tmp_path):
        manifest = telemetry.build_manifest("bench", timings={"t_s": 0.5})
        path = telemetry.write_manifest(tmp_path / "sub" / "manifest.json", manifest)
        loaded = telemetry.read_manifest(path)
        assert loaded["command"] == "bench"
        assert loaded["timings_s"] == {"t_s": 0.5}
