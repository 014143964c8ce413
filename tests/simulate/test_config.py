"""Tests for generator configuration."""


import pytest

from repro.records.dataset import HardwareGroup
from repro.records.taxonomy import Category
from repro.simulate.config import (
    ArchiveConfig,
    ConfigError,
    EffectSizes,
    LANL_SYSTEMS,
    SystemSpec,
    small_config,
)


class TestSystemSpec:
    def test_catalogue_shape(self):
        ids = {s.system_id for s in LANL_SYSTEMS}
        assert ids == {2, 3, 4, 5, 6, 8, 16, 18, 19, 20, 23}
        g1 = [s for s in LANL_SYSTEMS if s.group is HardwareGroup.GROUP1]
        g2 = [s for s in LANL_SYSTEMS if s.group is HardwareGroup.GROUP2]
        # Paper: group-2 has 70 nodes over systems 2, 16, 23.
        assert sum(s.num_nodes for s in g2) == 70
        # Paper: systems 18/19 have 1024 nodes and 20 has 512.
        by_id = {s.system_id: s for s in LANL_SYSTEMS}
        assert by_id[18].num_nodes == 1024
        assert by_id[19].num_nodes == 1024
        assert by_id[20].num_nodes == 512
        # Usage systems are 8 and 20; temperature only on 20.
        assert by_id[8].has_usage and by_id[20].has_usage
        assert by_id[20].has_temperature
        assert not by_id[18].has_usage
        # Group-1 systems have layouts, group-2 do not.
        assert all(s.has_layout for s in g1)
        assert not any(s.has_layout for s in g2)

    def test_scaled(self):
        spec = LANL_SYSTEMS[0]
        half = spec.scaled(0.5)
        assert half.num_nodes == round(spec.num_nodes * 0.5)
        tiny = spec.scaled(0.0001)
        assert tiny.num_nodes == 2  # floor

    def test_scaled_rejects_nonpositive(self):
        for scale in (0.0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigError):
                LANL_SYSTEMS[0].scaled(scale)

    def test_rejects_bad_spec(self):
        with pytest.raises(ConfigError):
            SystemSpec(1, HardwareGroup.GROUP1, 0, 4)
        with pytest.raises(ConfigError):
            SystemSpec(1, HardwareGroup.GROUP1, 4, 0)
        with pytest.raises(ConfigError):
            SystemSpec(1, HardwareGroup.GROUP1, 4, 4, nodes_per_rack=9)


class TestEffectSizes:
    def test_defaults_valid(self):
        EffectSizes()

    def test_mixes_must_sum_to_one(self):
        bad = {Category.HARDWARE: 0.5, Category.SOFTWARE: 0.1}
        with pytest.raises(ConfigError):
            EffectSizes(category_mix=bad)

    def test_cascade_must_be_6x6(self):
        with pytest.raises(ConfigError):
            EffectSizes(same_node_cascade=[[0.0] * 6] * 5)

    def test_cascade_rejects_negative(self):
        m = [[0.0] * 6 for _ in range(6)]
        m[0][0] = -0.1
        with pytest.raises(ConfigError):
            EffectSizes(same_node_cascade=m)

    def test_base_hazard_lookup(self):
        e = EffectSizes()
        assert e.base_daily_hazard(HardwareGroup.GROUP1) == e.base_daily_hazard_g1
        assert e.base_daily_hazard(HardwareGroup.GROUP2) == e.base_daily_hazard_g2

    def test_group2_cascade_stronger_and_faster(self):
        e = EffectSizes()
        assert e.cascade_scale(HardwareGroup.GROUP2) > 1.0
        assert e.cascade_decay(HardwareGroup.GROUP2) < e.cascade_decay(
            HardwareGroup.GROUP1
        )

    def test_hw_mix_matches_paper_shares(self):
        # "20% of hardware failures are attributed to memory and 40% CPU".
        from repro.records.taxonomy import HardwareSubtype

        e = EffectSizes()
        assert e.hw_subtype_mix[HardwareSubtype.MEMORY] == pytest.approx(0.20)
        assert e.hw_subtype_mix[HardwareSubtype.CPU] == pytest.approx(0.40)

    def test_env_mix_matches_figure9(self):
        from repro.records.taxonomy import EnvironmentSubtype

        e = EffectSizes()
        assert e.env_subtype_mix[EnvironmentSubtype.POWER_OUTAGE] == pytest.approx(
            0.49
        )


class TestArchiveConfig:
    def test_defaults(self):
        c = ArchiveConfig()
        assert c.duration_days == pytest.approx(9.0 * 365.25)
        assert len(c.scaled_systems()) == len(LANL_SYSTEMS)

    def test_small_config(self):
        c = small_config(seed=5, years=2.0, scale=0.1)
        assert c.seed == 5
        specs = c.scaled_systems()
        by_id = {s.system_id: s for s in specs}
        assert by_id[18].num_nodes == 102

    def test_rejects_duplicate_systems(self):
        spec = LANL_SYSTEMS[0]
        with pytest.raises(ConfigError):
            ArchiveConfig(systems=(spec, spec))

    def test_rejects_bad_years(self):
        for years in (0.0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigError):
                ArchiveConfig(years=years)

    def test_rejects_bad_scale(self):
        for scale in (-1.0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigError):
                ArchiveConfig(scale=scale)
