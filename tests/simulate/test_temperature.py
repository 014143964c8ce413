"""Tests for the temperature series generator."""

import numpy as np
import pytest

from repro.records.dataset import HardwareGroup
from repro.records.taxonomy import EnvironmentSubtype, HardwareSubtype
from repro.simulate.config import ArchiveConfig, SystemSpec
from repro.simulate.power import StressorEvent
from repro.simulate.temperature import generate_temperatures


def spec(nodes=10):
    return SystemSpec(
        system_id=20,
        group=HardwareGroup.GROUP1,
        num_nodes=nodes,
        processors_per_node=4,
        has_temperature=True,
    )


def config(**kw):
    defaults = dict(seed=1, years=0.5)
    defaults.update(kw)
    return ArchiveConfig(**defaults)


def dense_config():
    """Excursions are short (hours); sample densely enough to see them."""
    from repro.simulate.config import EffectSizes

    effects = EffectSizes(
        temp_sample_interval_days=0.05, temp_excursion_days=0.5
    )
    return ArchiveConfig(seed=1, years=0.2, effects=effects)


class TestGenerateTemperatures:
    def test_every_node_sampled(self):
        readings = generate_temperatures(
            spec(), config(), np.random.default_rng(1), ()
        )
        nodes = set(readings.node_ids.tolist())
        assert nodes == set(range(10))

    def test_sampling_cadence(self):
        cfg = config()
        readings = generate_temperatures(
            spec(nodes=1), cfg, np.random.default_rng(2), ()
        )
        expected = int(np.ceil(cfg.duration_days / cfg.effects.temp_sample_interval_days))
        assert abs(len(readings) - expected) <= 1

    def test_baseline_plausible(self):
        cfg = config()
        readings = generate_temperatures(
            spec(), cfg, np.random.default_rng(3), ()
        )
        temps = readings.celsius
        assert 15.0 < temps.mean() < 40.0
        assert temps.std() < 10.0

    def test_fan_excursion_heats_only_its_node(self):
        cfg = dense_config()
        event = StressorEvent(
            time=30.0, subtype=HardwareSubtype.FAN, node_ids=(2,)
        )
        hot = generate_temperatures(
            spec(), cfg, np.random.default_rng(4), (event,)
        )
        cold = generate_temperatures(
            spec(), cfg, np.random.default_rng(4), ()
        )
        def max_at(readings, node):
            t = readings.times
            return readings.celsius[
                (readings.node_ids == node) & (29.9 <= t) & (t <= 30.6)
            ].max()
        # The excursion node gets hotter than its no-event twin run.
        assert max_at(hot, 2) > max_at(cold, 2) + 5.0
        # A different node is unaffected (identical RNG stream).
        assert max_at(hot, 5) == pytest.approx(max_at(cold, 5))

    def test_chiller_excursion_heats_room(self):
        cfg = dense_config()
        event = StressorEvent(
            time=30.0, subtype=EnvironmentSubtype.CHILLER, node_ids=(0,)
        )
        hot = generate_temperatures(
            spec(), cfg, np.random.default_rng(5), (event,)
        )
        cold = generate_temperatures(
            spec(), cfg, np.random.default_rng(5), ()
        )
        def mean_in_window(readings):
            t = readings.times
            return readings.celsius[(29.9 <= t) & (t <= 30.6)].mean()

        hot_mean = mean_in_window(hot)
        cold_mean = mean_in_window(cold)
        assert hot_mean > cold_mean + 2.0

    def test_readings_sorted(self):
        readings = generate_temperatures(
            spec(), config(), np.random.default_rng(6), ()
        )
        times = readings.times.tolist()
        assert times == sorted(times)
