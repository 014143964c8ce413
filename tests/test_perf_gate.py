"""The CI perf gate's comparison (``benchmarks/perf_gate.py``), on
hand-built perfbench result lines; no benchmark is started."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "perf_gate.py"
_SPEC = importlib.util.spec_from_file_location("perf_gate", _PATH)
gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gate)

NOOP_S = 0.04
BASELINE = {
    "seed": gate.SEED,
    "seconds": gate.SECONDS,
    "metrics": {
        "session_op_s": 0.5,
        "session_setup_s": 3.0,
        "stream_op_s": 1.0,
        "checkpoint_roundtrip_s": 0.1,
        "telemetry_noop_s": NOOP_S,
    },
}


def _results() -> dict:
    """Result lines of correct perfbench runs that read exactly the baseline."""
    metrics = {
        "session": {"op_s": 0.5, "setup_s": 3.0},
        "stream": {"op_s": 1.0, "setup_s": 3.0},
        "stream-traced": {"stream.checkpoint_write_s": 0.06, "stream.restore_s": 0.04},
    }
    return {
        run: {
            "correct": True,
            "attempted": 4,
            "failed": 0,
            "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()},
        }
        for run, values in metrics.items()
    }


def test_guards_the_five_quantities_at_2x():
    assert gate.FACTOR == 2.0
    slacks = {name: slack for name, (_, _, slack) in gate.GUARDED.items()}
    assert slacks == {
        "session_op_s": 0.05,
        "session_setup_s": 0.05,
        "stream_op_s": 0.0,
        "checkpoint_roundtrip_s": 0.05,
        "telemetry_noop_s": 0.05,
    }
    assert gate.check(_results(), NOOP_S, BASELINE) == []
    assert gate.measurement(_results(), NOOP_S)["metrics"] == pytest.approx(
        BASELINE["metrics"]
    )


@pytest.mark.parametrize(
    "name, run, metric, at_bound",
    [
        ("session_op_s", "session", "op_s", 2 * 0.5 + 0.05),
        ("session_setup_s", "session", "setup_s", 2 * 3.0 + 0.05),
        ("stream_op_s", "stream", "op_s", 2 * 1.0),
        ("checkpoint_roundtrip_s", "stream-traced", "stream.restore_s", 0.25 - 0.06),
        ("telemetry_noop_s", None, None, 2 * NOOP_S + 0.05),
    ],
)
def test_guarded_quantity(name, run, metric, at_bound):
    for delta in (-1e-6, 1e-6):  # just under the bound, then just over it
        results, noop_s = _results(), at_bound + delta
        if run is not None:
            noop_s = NOOP_S
            results[run]["metrics"][metric]["value"] = at_bound + delta
        problems = gate.check(results, noop_s, BASELINE)
        if delta < 0:
            assert problems == []
        else:
            [problem] = problems
            assert problem.startswith(f"{name}: ") and "exceeds" in problem
    baseline = copy.deepcopy(BASELINE)
    del baseline["metrics"][name]
    assert gate.check(_results(), NOOP_S, baseline) == [f"{name}: missing from the baseline"]
    if run is not None:
        results = _results()
        del results[run]["metrics"][metric]
        assert gate.check(results, NOOP_S, BASELINE) == [f"{name}: missing from the run"]


@pytest.mark.parametrize("run", sorted(gate.RUNS))
def test_incorrect_failed_or_missing_run_fails(run):
    results = _results()
    results[run]["correct"] = False
    assert gate.check(results, NOOP_S, BASELINE) == [f"{run}: not correct"]
    results = _results()
    results[run]["failed"] = 1
    assert gate.check(results, NOOP_S, BASELINE) == [f"{run}: 1 failed operations"]
    del results[run]
    assert f"{run}: not correct" in gate.check(results, NOOP_S, BASELINE)


@pytest.mark.parametrize("key, value", [("seed", 7), ("seconds", 8)])
def test_baseline_config_mismatch_fails(key, value):
    baseline = dict(BASELINE, **{key: value})
    [problem] = gate.check(_results(), NOOP_S, baseline)
    assert problem.endswith("refresh it")


def test_committed_baseline_matches_the_gate():
    baseline = json.loads(gate.BASELINE.read_text())
    assert (baseline["seed"], baseline["seconds"]) == (gate.SEED, gate.SECONDS)
    assert set(baseline["metrics"]) == set(gate.GUARDED)
