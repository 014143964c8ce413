"""Tests for the stressor event processes."""

import numpy as np

from repro.records.dataset import HardwareGroup
from repro.records.taxonomy import (
    Category,
    EnvironmentSubtype,
    HardwareSubtype,
)
from repro.simulate.config import ArchiveConfig, SystemSpec
from repro.simulate.power import generate_stressors
from tests.records.record_views import (
    failure_table_records,
    maintenance_table_records,
)


def spec(nodes=50, group=HardwareGroup.GROUP1):
    return SystemSpec(
        system_id=2, group=group, num_nodes=nodes, processors_per_node=4
    )


def config(**kw):
    defaults = dict(seed=1, years=6.0)
    defaults.update(kw)
    return ArchiveConfig(**defaults)


def rack_mapping(nodes=50, per_rack=5):
    return np.arange(nodes) // per_rack


class TestGenerateStressors:
    def test_all_event_types_present(self):
        traces = generate_stressors(
            spec(), config(), np.random.default_rng(1), rack_mapping()
        )
        kinds = {e.subtype for e in traces.events}
        assert EnvironmentSubtype.POWER_OUTAGE in kinds
        assert EnvironmentSubtype.POWER_SPIKE in kinds
        assert EnvironmentSubtype.UPS in kinds
        assert EnvironmentSubtype.CHILLER in kinds
        assert HardwareSubtype.POWER_SUPPLY in kinds
        assert HardwareSubtype.FAN in kinds

    def test_failures_match_events(self):
        traces = generate_stressors(
            spec(), config(), np.random.default_rng(2), rack_mapping()
        )
        n_event_nodes = sum(len(e.node_ids) for e in traces.events)
        assert len(traces.failures) == n_event_nodes

    def test_env_events_are_env_failures(self):
        traces = generate_stressors(
            spec(), config(), np.random.default_rng(3), rack_mapping()
        )
        for f in failure_table_records(traces.failures, 20):
            if f.subtype in (
                EnvironmentSubtype.POWER_OUTAGE,
                EnvironmentSubtype.POWER_SPIKE,
                EnvironmentSubtype.UPS,
                EnvironmentSubtype.CHILLER,
            ):
                assert f.category is Category.ENVIRONMENT
            else:
                assert f.category is Category.HARDWARE

    def test_ups_hits_whole_racks(self):
        rack_of = rack_mapping()
        traces = generate_stressors(
            spec(), config(), np.random.default_rng(4), rack_of
        )
        ups = [e for e in traces.events if e.subtype is EnvironmentSubtype.UPS]
        assert ups
        for e in ups:
            racks = {rack_of[n] for n in e.node_ids}
            assert len(racks) == 1
            rack = racks.pop()
            assert set(e.node_ids) == set(np.nonzero(rack_of == rack)[0])

    def test_ups_without_layout_uses_small_sets(self):
        traces = generate_stressors(
            spec(group=HardwareGroup.GROUP2), config(), np.random.default_rng(5), None
        )
        ups = [e for e in traces.events if e.subtype is EnvironmentSubtype.UPS]
        assert all(len(e.node_ids) <= 5 for e in ups)

    def test_psu_failures_repeat_on_weak_nodes(self):
        # Chronic PSU weakness: some nodes fail repeatedly (Figure 12).
        cfg = config(years=9.0)
        counts = {}
        for seed in range(4):
            traces = generate_stressors(
                spec(nodes=200), cfg, np.random.default_rng(seed), None
            )
            for e in traces.events:
                if e.subtype is HardwareSubtype.POWER_SUPPLY:
                    key = (seed, e.node_ids[0])
                    counts[key] = counts.get(key, 0) + 1
        assert counts, "expected PSU events"
        assert max(counts.values()) >= 2

    def test_outage_footprint_capped_per_event(self):
        cfg = config()
        traces = generate_stressors(
            spec(nodes=500), cfg, np.random.default_rng(6), None
        )
        outages = [
            e
            for e in traces.events
            if e.subtype is EnvironmentSubtype.POWER_OUTAGE
        ]
        assert outages
        # Each outage hits at most the (scaled) exposed pool; across the
        # system's life outages move around (no chronically doomed area).
        for e in outages:
            assert len(e.node_ids) <= cfg.effects.power_event_pool_cap
        all_hit = {n for e in outages for n in e.node_ids}
        assert len(all_hit) > max(len(e.node_ids) for e in outages)

    def test_maintenance_generated_after_power_events(self):
        traces = generate_stressors(
            spec(), config(), np.random.default_rng(7), rack_mapping()
        )
        assert traces.maintenance
        for m in maintenance_table_records(traces.maintenance, 20):
            assert m.hardware_related
            assert 0 <= m.time < config().duration_days

    def test_events_sorted_and_in_period(self):
        cfg = config()
        traces = generate_stressors(
            spec(), cfg, np.random.default_rng(8), rack_mapping()
        )
        times = [e.time for e in traces.events]
        assert times == sorted(times)
        assert all(0 <= t < cfg.duration_days for t in times)

    def test_schedule_has_entries(self):
        traces = generate_stressors(
            spec(), config(), np.random.default_rng(9), rack_mapping()
        )
        total_entries = sum(
            len(traces.schedule.pop(day)) for day in range(int(config().duration_days) + 10)
        )
        assert total_entries > 0
