"""Benchmarks for the toolkit's extension analyses.

Not paper figures -- these cover the companion/extension features that
DESIGN.md commits to: classical inter-arrival modeling, the out-of-sample
risk evaluation, lifecycle (infant-mortality) analysis, and the
downtime/availability accounting.  Each asserts the generator-injected
ground truth is recovered.
"""

import numpy as np

from repro.core.downtime import (
    availability,
    downtime_share_by_category,
    repair_times_by_category,
)
from repro.core.interarrival import fit_interarrival_model
from repro.core.lifecycle import lifecycle_analysis
from repro.prediction.evaluation import evaluate_risk_model
from repro.records.taxonomy import Category


def test_interarrival_model(benchmark, bench_archive):
    """Classical lens: clustering shows where it statistically must.

    Superposing hundreds of nodes' processes drives the *pooled* gap
    distribution toward exponential (Palm-Khintchine), so the system-wide
    Weibull shape sits near 1; the clustering signal lives in (a) the
    autocorrelation of daily counts and (b) the per-node processes --
    exactly why the paper measures conditional probabilities instead of
    marginal gap distributions.
    """
    ds = bench_archive[18]
    model = benchmark(fit_interarrival_model, ds)
    weibull = model.fit_for("weibull")
    assert weibull.shape is not None and weibull.shape < 1.1
    assert model.daily_acf is not None
    # Positive short-lag autocorrelation of daily counts.
    assert np.mean(model.daily_acf[1:4]) > 0
    # Per-node (the prone login node): clearly decreasing hazard.
    node0 = fit_interarrival_model(ds, node_id=0)
    node0_weibull = node0.fit_for("weibull")
    assert node0_weibull.shape < weibull.shape
    assert node0.clustered
    print(
        f"\n[ext/interarrival] system-wide weibull shape "
        f"{weibull.shape:.3f} (superposition); node-0 shape "
        f"{node0_weibull.shape:.3f} (clustered); "
        f"acf1={model.daily_acf[1]:+.2f}"
    )


def test_risk_evaluation(benchmark, bench_group1):
    """Out-of-sample: the risk model beats the constant baseline."""
    ev = benchmark.pedantic(
        evaluate_risk_model, args=(bench_group1,), rounds=1, iterations=1
    )
    assert ev.skill > 0.0
    assert ev.lift_top_decile > 1.5
    print(
        f"\n[ext/risk-eval] skill={ev.skill:+.3f} "
        f"lift@10%={ev.lift_top_decile:.1f}x "
        f"recall@10%={ev.recall_top_decile:.0%} "
        f"({ev.n_instances} node-weeks)"
    )


def test_lifecycle(benchmark, bench_archive):
    """The injected burn-in phase (2.5x decaying over ~90 days) shows up."""
    r = benchmark(lifecycle_analysis, bench_archive[18])
    assert r.infant_mortality_detected
    assert 1.3 < r.early_factor < 4.0
    print(
        f"\n[ext/lifecycle] early factor {r.early_factor:.2f}x "
        f"(injected 2.5x decaying), p={r.early_vs_rest.p_value:.1e}"
    )


def test_downtime(benchmark, bench_archive):
    """Repair-time laws and availability accounting."""
    systems = list(bench_archive)

    def run():
        return (
            repair_times_by_category(systems),
            downtime_share_by_category(systems),
            [availability(ds) for ds in systems],
        )

    by_cat, shares, avails = benchmark(run)
    # Injected lognormal repair laws; ENV repairs longest.
    assert by_cat[Category.HARDWARE].fitted.family == "lognormal"
    assert (
        by_cat[Category.ENVIRONMENT].mttr_hours
        > by_cat[Category.HUMAN].mttr_hours
    )
    assert shares[Category.HARDWARE] == max(shares.values())
    assert all(0.9 < a.availability < 1.0 for a in avails)
    print(
        "\n[ext/downtime] MTTR "
        + "  ".join(f"{c.value}:{r.mttr_hours:.1f}h" for c, r in by_cat.items())
    )
