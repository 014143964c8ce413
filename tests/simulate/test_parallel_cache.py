"""The on-disk archive cache.

An archive served from the cache is bit-identical to a fresh generation.
The cache key must cover *every* configuration field (plus the generator
version), and a damaged cache entry must be regenerated, never raised.
"""

from __future__ import annotations

import dataclasses
import os
import pickle

import pytest

from repro import telemetry
from repro.records.dataset import Archive
from repro.simulate.archive import make_archive
from repro.simulate.cache import (
    cache_dir,
    cache_path,
    cached_make_archive,
    config_digest,
    load_cached,
    store_cached,
)
from repro.simulate.config import ArchiveConfig, EffectSizes, small_config
from tests.records.record_views import (
    failure_records,
    job_records,
    maintenance_records,
    neutron_records,
    temperature_records,
)


def _layout_state(layout):
    if layout is None:
        return None
    return tuple(layout.placement(n) for n in layout.node_ids)


def _archive_state(archive: Archive):
    """Every generated value of an archive, as plain comparable data.

    Jobs are expanded with ``asdict`` because ``JobRecord.dispatch_time``
    is excluded from dataclass equality, and layouts as placement tuples
    because :class:`MachineLayout` compares by identity; determinism here
    means *every* field matches, not just the comparable ones.
    """
    return {
        "neutrons": neutron_records(archive),
        "systems": {
            ds.system_id: (
                ds.group,
                ds.num_nodes,
                ds.processors_per_node,
                ds.period,
                failure_records(ds),
                maintenance_records(ds),
                tuple(dataclasses.asdict(j) for j in job_records(ds)),
                temperature_records(ds),
                _layout_state(ds.layout),
            )
            for ds in archive
        },
    }


@pytest.fixture
def config() -> ArchiveConfig:
    return small_config(seed=11, years=1.5, scale=0.03)


class TestCacheRoundTrip:
    def test_miss_then_hit(self, config, tmp_path):
        assert load_cached(config, tmp_path) is None
        fresh = cached_make_archive(config, directory=tmp_path)
        assert cache_path(config, tmp_path).exists()
        hit = cached_make_archive(config, directory=tmp_path)
        assert _archive_state(hit) == _archive_state(fresh)

    def test_hit_identical_to_fresh_generation(self, config, tmp_path):
        store_cached(config, make_archive(config), tmp_path)
        cached = load_cached(config, tmp_path)
        assert cached is not None
        assert _archive_state(cached) == _archive_state(make_archive(config))

    def test_warm_failure_and_maintenance_logs_equal_cold(self, config, tmp_path):
        """Both logs are stored as columns; decoding must give back the
        same rows: exact floats, the same enum members."""
        cold = cached_make_archive(config, directory=tmp_path)
        warm = load_cached(config, tmp_path)
        assert warm is not None
        for ds in cold:
            other = warm[ds.system_id]
            assert failure_records(other) == failure_records(ds)
            assert maintenance_records(other) == maintenance_records(ds)
            for a, b in zip(failure_records(ds), failure_records(other)):
                assert float(a.time).hex() == b.time.hex()
                assert float(a.downtime_hours).hex() == b.downtime_hours.hex()
                assert (a.system_id, a.node_id) == (b.system_id, b.node_id)
                assert a.category is b.category and a.subtype is b.subtype
            for a, b in zip(maintenance_records(ds), maintenance_records(other)):
                assert float(a.time).hex() == b.time.hex()
                assert float(a.duration_hours).hex() == b.duration_hours.hex()
                assert (a.system_id, a.node_id) == (b.system_id, b.node_id)
                assert a.hardware_related is b.hardware_related
        assert sum(len(ds.maintenance) for ds in cold) > 0

    def test_refresh_regenerates(self, config, tmp_path):
        cached_make_archive(config, directory=tmp_path)
        before = cache_path(config, tmp_path).stat().st_mtime_ns
        cached_make_archive(config, directory=tmp_path, refresh=True)
        after = cache_path(config, tmp_path).stat().st_mtime_ns
        assert after > before

    def test_env_var_overrides_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert cache_dir() == tmp_path / "custom"


class TestCacheInvalidation:
    def test_every_top_level_config_field_changes_the_key(self, config):
        base = config_digest(config)
        variants = {
            "seed": dataclasses.replace(config, seed=config.seed + 1),
            "years": dataclasses.replace(config, years=config.years + 0.5),
            "scale": dataclasses.replace(config, scale=config.scale * 2),
            "systems": dataclasses.replace(
                config, systems=config.systems[:-1]
            ),
            "effects": dataclasses.replace(
                config,
                effects=dataclasses.replace(
                    config.effects, cascade_decay_days=9.0
                ),
            ),
            "jobs_per_node_per_year": dataclasses.replace(
                config, jobs_per_node_per_year=7.0
            ),
            "num_users": dataclasses.replace(config, num_users=13),
            "neutron_sample_interval_days": dataclasses.replace(
                config, neutron_sample_interval_days=2.0
            ),
        }
        assert set(variants) == {
            f.name for f in dataclasses.fields(ArchiveConfig)
        }
        digests = {name: config_digest(v) for name, v in variants.items()}
        for name, digest in digests.items():
            assert digest != base, f"changing {name!r} must change the key"
        assert len(set(digests.values())) == len(digests)

    @pytest.mark.parametrize(
        "field_name", [f.name for f in dataclasses.fields(EffectSizes)]
    )
    def test_every_effect_field_changes_the_key(self, config, field_name):
        base = config_digest(config)
        value = getattr(config.effects, field_name)
        if isinstance(value, float):
            changed = value + 0.0625 if value >= 0 else value * 0.5
        elif isinstance(value, int):
            changed = value + 1
        elif isinstance(value, dict):
            k = next(iter(value))
            v = value[k]
            changed = {
                **value,
                k: tuple(x + 0.25 for x in v)
                if isinstance(v, tuple)
                else v + 0.25,
            }
        elif isinstance(value, list):
            changed = [list(row) for row in value]
            changed[0][0] += 0.125
        else:  # pragma: no cover - future field types must be handled
            pytest.fail(f"unhandled field type for {field_name}")
        # Bypass __post_init__ validation: some mixes must sum to 1, but
        # the *digest* must react to the raw field value regardless.
        effects = dataclasses.replace(config.effects)
        object.__setattr__(effects, field_name, changed)
        variant = dataclasses.replace(config, effects=effects)
        assert config_digest(variant) != base

    def test_generator_version_is_part_of_the_key(self, config, monkeypatch):
        import repro.simulate.cache as cache_mod

        base = config_digest(config)
        monkeypatch.setattr(
            cache_mod, "GENERATOR_VERSION", cache_mod.GENERATOR_VERSION + 1
        )
        assert config_digest(config) != base

    def test_digest_is_stable_across_calls(self, config):
        assert config_digest(config) == config_digest(
            dataclasses.replace(config)
        )


class TestCacheCorruptionTolerance:
    def _prime(self, config, tmp_path) -> Archive:
        archive = make_archive(config)
        store_cached(config, archive, tmp_path)
        return archive

    def test_truncated_entry_regenerated(self, config, tmp_path):
        archive = self._prime(config, tmp_path)
        path = cache_path(config, tmp_path)
        path.write_bytes(path.read_bytes()[: 100])
        assert load_cached(config, tmp_path) is None
        again = cached_make_archive(config, directory=tmp_path)
        assert _archive_state(again) == _archive_state(archive)

    def test_garbage_entry_regenerated(self, config, tmp_path):
        self._prime(config, tmp_path)
        cache_path(config, tmp_path).write_bytes(b"not a pickle at all")
        assert load_cached(config, tmp_path) is None
        assert cached_make_archive(config, directory=tmp_path) is not None

    def test_foreign_pickle_rejected(self, config, tmp_path):
        self._prime(config, tmp_path)
        with open(cache_path(config, tmp_path), "wb") as fh:
            pickle.dump({"magic": "something-else"}, fh)
        assert load_cached(config, tmp_path) is None

    def test_format_2_entry_is_a_counted_stale_miss(self, config, tmp_path):
        """An entry of the previous payload format (pickled records) is
        thrown away and counted, then regenerated."""
        archive = self._prime(config, tmp_path)
        path = cache_path(config, tmp_path)
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
        payload["format"] = 2
        for system, ds in zip(payload["archive"]["systems"], archive):
            del system["failure_table"]
            system["failures"] = failure_records(ds)
            system["maintenance"] = maintenance_records(ds)
        with open(path, "wb") as fh:
            pickle.dump(payload, fh)
        telemetry.reset_metrics()
        telemetry.set_metrics_enabled(True)
        try:
            assert load_cached(config, tmp_path) is None
            counters = telemetry.metrics_snapshot()["counters"]
        finally:
            telemetry.set_metrics_enabled(False)
            telemetry.reset_metrics()
        assert counters["archive_cache.abandoned{error=none,stage=stale}"] == 1
        assert not path.exists()
        again = cached_make_archive(config, directory=tmp_path)
        assert _archive_state(again) == _archive_state(archive)

    def test_format_4_entry_is_a_counted_stale_miss(self, config, tmp_path):
        """An entry of format 4 (maintenance columns under short keys,
        the neutron series pickled as records) is thrown away and
        counted, then regenerated."""
        archive = self._prime(config, tmp_path)
        path = cache_path(config, tmp_path)
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
        payload["format"] = 4
        for system in payload["archive"]["systems"]:
            cols = system.pop("maintenance")
            system["maintenance_cols"] = {
                "time": cols["times"],
                "node": cols["node_ids"],
                "hardware": cols["hardware_related"],
                "duration": cols["duration_hours"],
            }
            for old, new in (
                ("failure_cols", "failure_table"),
                ("job_cols", "job_columns"),
                ("temp_cols", "temperature_columns"),
            ):
                system[old] = system.pop(new)
        del payload["archive"]["neutron_cols"]
        payload["archive"]["neutrons"] = neutron_records(archive)
        with open(path, "wb") as fh:
            pickle.dump(payload, fh)
        telemetry.reset_metrics()
        telemetry.set_metrics_enabled(True)
        try:
            assert load_cached(config, tmp_path) is None
            counters = telemetry.metrics_snapshot()["counters"]
        finally:
            telemetry.set_metrics_enabled(False)
            telemetry.reset_metrics()
        assert counters["archive_cache.abandoned{error=none,stage=stale}"] == 1
        assert not path.exists()
        again = cached_make_archive(config, directory=tmp_path)
        assert _archive_state(again) == _archive_state(archive)

    @pytest.mark.parametrize(
        "edit",
        [
            # A format-3 entry: no code tables, failure codes of its own.
            lambda payload: payload.update(format=3, failure_codes=None),
            # Codes that index other tables than the running code's.
            lambda payload: payload.update(
                failure_codes=tuple(t[::-1] for t in payload["failure_codes"])
            ),
        ],
        ids=["format-3", "other-codes"],
    )
    def test_entry_with_other_failure_codes_is_a_counted_stale_miss(
        self, config, tmp_path, edit
    ):
        archive = self._prime(config, tmp_path)
        path = cache_path(config, tmp_path)
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
        edit(payload)
        with open(path, "wb") as fh:
            pickle.dump(payload, fh)
        telemetry.reset_metrics()
        telemetry.set_metrics_enabled(True)
        try:
            assert load_cached(config, tmp_path) is None
            counters = telemetry.metrics_snapshot()["counters"]
        finally:
            telemetry.set_metrics_enabled(False)
            telemetry.reset_metrics()
        assert counters["archive_cache.abandoned{error=none,stage=stale}"] == 1
        again = cached_make_archive(config, directory=tmp_path)
        assert _archive_state(again) == _archive_state(archive)

    def test_wrong_digest_rejected(self, config, tmp_path):
        """An entry renamed to the wrong key must not be served."""
        other = dataclasses.replace(config, seed=config.seed + 1)
        self._prime(config, tmp_path)
        os.replace(
            cache_path(config, tmp_path), cache_path(other, tmp_path)
        )
        assert load_cached(other, tmp_path) is None

    def test_bad_entry_is_discarded_on_load(self, config, tmp_path):
        self._prime(config, tmp_path)
        path = cache_path(config, tmp_path)
        path.write_bytes(b"junk")
        load_cached(config, tmp_path)
        assert not path.exists()
