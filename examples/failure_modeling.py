"""Failure-process modeling and out-of-sample prediction.

Run:
    python examples/failure_modeling.py [archive-dir]

Two analyses that bracket the paper:

1. **The classical lens** the paper contrasts itself with (Section I):
   fit exponential/Weibull/lognormal/gamma distributions to inter-arrival
   times, check the hazard-rate verdict and the autocorrelation of daily
   failure counts.  A Weibull shape below 1 (decreasing hazard) is the
   classical signature of the clustering the paper measures directly.
2. **The paper's payoff**: a temporal train/test split showing that the
   risk model fitted from measured conditional probabilities predicts
   held-out failures better than the base rate -- with the lift an
   operator would see when paging on the model's top decile.
"""

import sys
from pathlib import Path

from repro import HardwareGroup, load_archive, quick_archive
from repro.core.interarrival import (
    InterArrivalError,
    fit_interarrival_model,
    render_interarrival_report,
    simultaneity_share,
)
from repro.prediction.evaluation import evaluate_risk_model
from repro.viz import failure_timeline


def main() -> None:
    if len(sys.argv) > 1:
        archive = load_archive(Path(sys.argv[1]))
    else:
        print("generating a synthetic archive...")
        archive = quick_archive(seed=9, years=6.0, scale=0.2)

    print("\n=== 1. classical inter-arrival modeling ===")
    biggest = sorted(archive, key=lambda ds: -len(ds.failure_table))[:3]
    for ds in biggest:
        print()
        print(failure_timeline(ds))
        try:
            model = fit_interarrival_model(ds)
        except InterArrivalError as exc:
            print(f"system {ds.system_id}: {exc}")
            continue
        print(render_interarrival_report(model))
        print(
            f"simultaneous-event share: {simultaneity_share(ds):.1%} "
            "(multi-node events such as outages)"
        )

    print("\n=== 2. out-of-sample risk-model evaluation ===")
    g1 = archive.group(HardwareGroup.GROUP1)
    ev = evaluate_risk_model(g1)
    print(
        f"split: first half fits, second half evaluates "
        f"({ev.n_instances} node-weeks)\n"
        f"  base failure rate:      {ev.base_rate:.2%}\n"
        f"  Brier score (model):    {ev.brier_model:.5f}\n"
        f"  Brier score (baseline): {ev.brier_baseline:.5f}\n"
        f"  skill vs baseline:      {ev.skill:+.3f}\n"
        f"  lift @ top decile:      {ev.lift_top_decile:.1f}x "
        f"(capturing {ev.recall_top_decile:.0%} of failures)"
    )
    print(
        "\nreading: positive skill out of sample confirms the paper's "
        "premise -- recent failures (with root causes) predict future "
        "ones; the decile lift is what an operator gains by acting on "
        "the correlations instead of treating failures as memoryless."
    )


if __name__ == "__main__":
    main()
