"""Generator throughput benchmarks.

Not a paper figure: tracks the cost of producing archives, so
regressions in the day-stepped simulation show up in CI.
"""


from repro.simulate.archive import make_archive
from repro.simulate.config import small_config


def test_generate_small_archive(benchmark):
    """Full 11-system archive at 3% scale, 2 years."""
    archive = benchmark.pedantic(
        make_archive,
        args=(small_config(seed=1, years=2.0, scale=0.03),),
        rounds=3,
        iterations=1,
    )
    assert archive.total_failures() > 100


def test_generate_medium_system(benchmark):
    """One 300-node system over 5 years (the analysis-grade size)."""
    from repro.simulate.archive import generate_system
    from repro.simulate.config import ArchiveConfig, LANL_SYSTEMS
    from repro.simulate.neutrons import generate_neutron_series
    from repro.simulate.rng import RngStreams

    config = ArchiveConfig(seed=2, years=5.0, scale=0.3)
    spec = next(s for s in LANL_SYSTEMS if s.system_id == 18).scaled(0.3)
    streams = RngStreams(config.seed)
    _, flux = generate_neutron_series(
        config.duration_days, streams.get("neutrons")
    )

    def run():
        return generate_system(spec, config, RngStreams(config.seed), flux)

    ds = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(ds.failure_table) > 500
