"""Tests for the job-log generator."""

import dataclasses

import numpy as np

from repro.records.dataset import HardwareGroup
from repro.simulate.config import ArchiveConfig, SystemSpec
from repro.simulate.usage import generate_usage

from .reference_generation import reference_jobs


def spec(nodes=20):
    return SystemSpec(
        system_id=20,
        group=HardwareGroup.GROUP1,
        num_nodes=nodes,
        processors_per_node=4,
        has_usage=True,
    )


def jobs(traces):
    """The job log of ``traces`` as records (no job marked failed)."""
    return reference_jobs(traces, 20, np.zeros(traces.n_jobs, dtype=bool))


def config(**kw):
    defaults = dict(seed=1, years=1.0, jobs_per_node_per_year=100.0, num_users=50)
    defaults.update(kw)
    return ArchiveConfig(**defaults)


class TestGenerateUsage:
    def test_basic_shape(self):
        traces = generate_usage(spec(), config(), np.random.default_rng(1))
        n_days = int(np.ceil(365.25))
        assert traces.jobs_started.shape == (n_days, 20)
        assert traces.busy_fraction.shape == (n_days, 20)
        assert traces.user_risk.shape == (n_days, 20)
        assert len(jobs(traces)) > 500

    def test_drafts_within_period(self):
        cfg = config()
        traces = generate_usage(spec(), cfg, np.random.default_rng(2))
        for d in jobs(traces):
            assert 0.0 <= d.submit_time <= d.dispatch_time <= d.end_time
            assert d.end_time < cfg.duration_days

    def test_busy_fraction_bounded(self):
        traces = generate_usage(spec(), config(), np.random.default_rng(3))
        assert (traces.busy_fraction >= 0).all()
        assert (traces.busy_fraction <= 1).all()

    def test_node0_is_most_used(self):
        traces = generate_usage(spec(nodes=30), config(), np.random.default_rng(4))
        per_node_jobs = traces.jobs_started.sum(axis=0)
        assert per_node_jobs.argmax() == 0
        # Login node is scheduled several times more often than average.
        assert per_node_jobs[0] > 2.5 * per_node_jobs[1:].mean()

    def test_user_population(self):
        cfg = config(num_users=50)
        traces = generate_usage(spec(), cfg, np.random.default_rng(5))
        users = {d.user_id for d in jobs(traces)}
        assert users <= set(range(50))
        assert len(users) > 25  # most users show up
        assert traces.user_risks.shape == (50,)
        assert (traces.user_risks > 0).all()

    def test_heavy_tail_user_activity(self):
        traces = generate_usage(spec(), config(), np.random.default_rng(6))
        counts = np.bincount(
            [d.user_id for d in jobs(traces)], minlength=50
        )
        # Zipf-ish: the most active user dwarfs the median user.
        assert counts.max() > 5 * max(np.median(counts), 1)

    def test_processors_match_nodes(self):
        traces = generate_usage(spec(), config(), np.random.default_rng(7))
        for d in jobs(traces)[:100]:
            assert d.num_processors == len(d.node_ids) * 4

    def test_zero_density(self):
        traces = generate_usage(
            spec(), config(jobs_per_node_per_year=0.0), np.random.default_rng(8)
        )
        assert jobs(traces) == []
        assert traces.jobs_started.sum() == 0

    def test_deterministic(self):
        a = generate_usage(spec(), config(), np.random.default_rng(9))
        b = generate_usage(spec(), config(), np.random.default_rng(9))
        assert len(jobs(a)) == len(jobs(b))
        assert dataclasses.astuple(jobs(a)[0]) == dataclasses.astuple(jobs(b)[0])
        assert (a.busy_fraction == b.busy_fraction).all()

    def test_job_ids_unique(self):
        traces = generate_usage(spec(), config(), np.random.default_rng(10))
        ids = [d.job_id for d in jobs(traces)]
        assert len(ids) == len(set(ids))
