"""Ablation benchmarks for the design choices DESIGN.md calls out.

* **Baseline window semantics** -- tiled (non-overlapping) vs sliding
  (overlapping) windows: the paper's factors must not hinge on the
  tiling choice.
* **NB dispersion estimation** -- profile likelihood (the library's
  method) vs a method-of-moments estimate: the Table III conclusions
  must not hinge on the dispersion estimator.
* **Cascade decay shape** -- the generator uses exponential-decay hazard
  boosts; the analysis results must be robust to a fixed-window boost
  variant, which we approximate by re-tuning decay time (shorter decay,
  larger boost) and checking the measured correlations stay in band.
"""

import numpy as np
import pytest

from repro.core.correlations import pooled_baseline, same_node_any
from repro.core.windows import Counts
from repro.records.timeutil import Span, overlapping_window_starts
from repro.simulate.archive import make_archive
from repro.simulate.config import EffectSizes
from repro.stats.glm import fit_negative_binomial


def sliding_baseline_counts(times, nodes, num_nodes, period, span, step):
    """Overlapping-window baseline (the ablation alternative).

    Windows start every ``step`` days; a (node, window) trial succeeds
    when the node has >= 1 qualifying event inside ``[start, start+span)``.
    """
    starts = overlapping_window_starts(period, span, step)
    successes = 0
    for node in np.unique(nodes[nodes < num_nodes]):
        block = times[nodes == node]
        lo = np.searchsorted(block, starts, side="left")
        hi = np.searchsorted(block, starts + span.days, side="left")
        successes += int(np.count_nonzero(hi > lo))
    return Counts(successes, int(starts.size) * num_nodes)


def test_tiled_vs_sliding_baseline(benchmark, bench_group1):
    """The weekly baseline probability is tiling-invariant (< 15% gap)."""
    tiled = pooled_baseline(bench_group1, Span.WEEK)

    def run():
        total_s = total_t = 0
        for ds in bench_group1:
            t, n = ds.failure_table.select()
            c = sliding_baseline_counts(
                t, n, ds.num_nodes, ds.period, Span.WEEK, step=3.5
            )
            total_s += c.successes
            total_t += c.trials
        return total_s / total_t

    p_sliding = benchmark(run)
    p_tiled = tiled.estimate().value
    assert p_sliding == pytest.approx(p_tiled, rel=0.15)
    print(f"\n[ablation/baseline] tiled={p_tiled:.4f} sliding={p_sliding:.4f}")


def test_nb_dispersion_estimators(benchmark, bench_archive):
    """Profile-likelihood vs moments alpha: same Table III conclusions."""
    from repro.core.regression import build_design_matrix

    d = build_design_matrix(bench_archive[20])

    def moments_alpha():
        # Method of moments on the marginal counts: var = mu + alpha mu^2.
        mu = d.y.mean()
        var = d.y.var()
        return max((var - mu) / mu**2, 1e-4)

    profile = fit_negative_binomial(d.X, d.y, names=list(d.names))
    fixed = benchmark(
        fit_negative_binomial, d.X, d.y, list(d.names), None, moments_alpha()
    )
    # Profile likelihood is the library's estimator and detects the
    # injected effects cleanly.
    assert profile.coefficient("num_jobs").significant(0.01)
    assert profile.coefficient("num_jobs").estimate > 0
    # The marginal method-of-moments estimate is inflated by node 0's
    # outlier count (that is WHY the library uses profile likelihood):
    # it still agrees on signs and on the temperature nulls, but washes
    # out significance.  This ablation documents the sensitivity.
    assert fixed.alpha > profile.alpha
    assert fixed.coefficient("num_jobs").estimate > 0
    for model in (profile, fixed):
        assert not model.coefficient("avg_temp").significant(0.01)
    print(
        f"\n[ablation/nb-alpha] profile={profile.alpha:.3f} "
        f"(num_jobs p={profile.coefficient('num_jobs').p_value:.1e}) "
        f"moments={fixed.alpha:.3f} "
        f"(num_jobs p={fixed.coefficient('num_jobs').p_value:.2f})"
    )


def test_cascade_decay_robustness(benchmark):
    """A shorter-decay/larger-boost cascade yields the same qualitative
    Section III result (factors of the same order)."""

    def build(decay, boost_scale):
        from repro.records.dataset import HardwareGroup
        from repro.simulate.config import ArchiveConfig, LANL_SYSTEMS

        node = [
            [v * boost_scale for v in row]
            for row in EffectSizes().same_node_cascade
        ]
        effects = EffectSizes(
            cascade_decay_days=decay, same_node_cascade=node
        )
        # Group-1 systems only: the group-2 cascade scaling on top of the
        # ablation's boost_scale would push the branching factor past the
        # supercritical guard (by design -- the guard is doing its job).
        g1_specs = tuple(
            s for s in LANL_SYSTEMS if s.group is HardwareGroup.GROUP1
        )
        cfg = ArchiveConfig(
            seed=5, years=3.0, scale=0.08, systems=g1_specs, effects=effects
        )
        archive = make_archive(cfg)
        return same_node_any(
            archive.group(HardwareGroup.GROUP1), Span.WEEK
        ).factor

    # Same integrated boost (decay x scale constant), different shapes.
    slow = build(decay=5.0, boost_scale=1.0)
    fast = benchmark.pedantic(
        build, args=(2.0, 2.5), rounds=1, iterations=1
    )
    assert slow > 2.0 and fast > 2.0
    assert 0.3 < fast / slow < 3.0
    print(f"\n[ablation/cascade] slow-decay={slow:.1f}x fast-decay={fast:.1f}x")
