"""The fused day step against the per-call day loop it replaced.

``reference_failures.py`` keeps the old ``simulate_failures`` with its
own ``CascadeState`` and ``StressorState``.  On the same inputs, the
generator's organic failure records must equal the oracle's, record for
record, with times and downtimes equal as ``float.hex`` and the same
enum members.  The stream's synthetic feed also runs on
``CascadeState``, so its event sequence is pinned.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.records.dataset import HardwareGroup
from repro.records.layout import regular_layout
from repro.records.taxonomy import Category
from repro.simulate.archive import _rack_mapping
from repro.simulate.config import (
    CATEGORY_INDEX,
    N_CATEGORIES,
    ArchiveConfig,
    EffectSizes,
    SystemSpec,
    small_config,
)
from repro.simulate.failures import simulate_failures
from repro.simulate.hazards import CascadeState, StressorState
from repro.simulate.neutrons import generate_neutron_series
from repro.simulate.power import generate_stressors
from repro.simulate.rng import RngStreams
from repro.simulate.usage import generate_usage
from repro.stream.ingest import synthetic_source

from tests.records.record_views import failure_table_records

from . import reference_failures as reference

HW = CATEGORY_INDEX[Category.HARDWARE]


def _inputs(spec: SystemSpec, config: ArchiveConfig) -> tuple:
    """``simulate_failures``'s arguments for ``spec``, drawn from the
    streams ``make_archive`` uses; fresh on every call, because the run
    consumes the stressors' boost schedule."""
    streams = RngStreams(config.seed)
    _, flux = generate_neutron_series(
        config.duration_days,
        streams.get("neutrons"),
        sample_interval_days=config.neutron_sample_interval_days,
    )
    sid = spec.system_id
    layout = (
        regular_layout(spec.num_nodes, spec.nodes_per_rack)
        if spec.has_layout
        else None
    )
    rack_of = _rack_mapping(layout, spec.num_nodes)
    usage = (
        generate_usage(spec, config, streams.get(f"system-{sid}/usage"))
        if spec.has_usage
        else None
    )
    stressors = generate_stressors(
        spec, config, streams.get(f"system-{sid}/stressors"), rack_of
    )
    rng = streams.get(f"system-{sid}/failures")
    return spec, config, rng, rack_of, usage, flux, stressors


class RecordingRng:
    """A random generator that logs each draw's method and arguments
    (floats as ``float.hex``), then draws from the generator it wraps.

    Equal records can hide a hazard that moved by an ulp, since a draw
    rarely changes with its argument; equal logs cannot.  Every day's
    Poisson total is logged, so two runs with equal logs assembled every
    day's hazard to the same sum, bit for bit.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self.log: list[tuple] = []

    def __getattr__(self, name: str):
        draw = getattr(self._rng, name)

        def logged(*args):
            self.log.append((name, *(float(a).hex() for a in args)))
            return draw(*args)

        return logged


def _exact(records) -> list[tuple]:
    return [
        (
            float(r.time).hex(),
            r.system_id,
            r.node_id,
            r.category,
            r.subtype,
            float(r.downtime_hours).hex(),
        )
        for r in records
    ]


def _run(simulate, spec: SystemSpec, config: ArchiveConfig) -> tuple[list, list]:
    spec, config, rng, *rest = _inputs(spec, config)
    rng = RecordingRng(rng)
    return simulate(spec, config, rng, *rest), rng.log


def assert_same_failures(spec: SystemSpec, config: ArchiveConfig) -> int:
    table, got_draws = _run(simulate_failures, spec, config)
    got = list(failure_table_records(table, spec.system_id))
    want, want_draws = _run(reference.simulate_failures, spec, config)
    assert got_draws == want_draws
    assert got == want
    assert _exact(got) == _exact(want)
    for a, b in zip(got, want):
        assert a.category is b.category and a.subtype is b.subtype
    return len(got)


@pytest.mark.parametrize("seed", [3, 46])
def test_every_system_of_a_small_config(seed):
    config = small_config(seed=seed, years=2.0, scale=0.05)
    specs = config.scaled_systems()
    # The catalogue covers systems with and without usage and layout,
    # among them group-2 systems without a layout (no rack cascades).
    assert any(s.has_usage for s in specs)
    assert any(s.group is HardwareGroup.GROUP2 and not s.has_layout for s in specs)
    assert sum(assert_same_failures(spec, config) for spec in specs) > 500


def test_fractional_years_skip_the_last_partial_day():
    # The period ends 0.615 into its last day; at this seed two of that
    # day's draws fall past the end and are skipped.
    config = small_config(seed=9, years=1.001, scale=0.05)
    assert config.duration_days % 1 > 0.5
    for spec in config.scaled_systems():
        assert_same_failures(spec, config)


@pytest.mark.parametrize("sid", [2, 18, 20])
def test_one_node_systems(sid):
    config = small_config(seed=4, years=2.0, scale=0.05)
    spec = next(s for s in config.scaled_systems() if s.system_id == sid)
    assert_same_failures(dataclasses.replace(spec, num_nodes=1), config)


@pytest.mark.parametrize(
    "rack_of",
    [None, np.arange(12) // 5, np.arange(12) % 4, np.zeros(12, dtype=np.int64)],
    ids=["no-racks", "consecutive-racks", "interleaved-racks", "one-rack"],
)
def test_cascade_state_matches_the_oracle(rack_of):
    """Single- and multi-failure days, bit for bit, on every rack shape."""
    effects = EffectSizes()
    new = CascadeState(12, effects, 0.8, rack_of)
    old = reference.CascadeState(12, effects, 0.8, rack_of)
    rng = np.random.default_rng(1)
    for _ in range(300):
        size = int(rng.choice([0, 1, 1, 2, 3, 7]))
        nodes = rng.integers(0, 12, size)
        cats = rng.integers(0, N_CATEGORIES, size)
        new.absorb(nodes.tolist(), cats.tolist())
        old.absorb(nodes, cats)
        new.decay()
        old.decay()
        assert new.boost.tobytes() == old.boost.tobytes()


def test_stressor_state_matches_the_oracle():
    effects = EffectSizes()
    new = StressorState(6, effects)
    old = reference.StressorState(6, effects)
    rng = np.random.default_rng(2)
    for _ in range(200):
        entries = [
            (rng.integers(0, 6, 3), *rng.choice([0.0, 0.3, 1.7], size=3).tolist())
            for _ in range(int(rng.integers(0, 3)))
        ]
        new.apply(entries)
        old.apply(entries)
        new.decay()
        old.decay()
        for channel in ("hw", "sw", "thermal"):
            assert getattr(new, channel).tobytes() == getattr(old, channel).tobytes()
    # The channels are views of the hazard-shaped arrays the simulator adds.
    assert np.shares_memory(new.hw, new.slow)
    assert np.shares_memory(new.sw, new.slow)
    assert np.shares_memory(new.thermal, new.fast)
    assert new.slow[:, HW].tobytes() == new.hw.tobytes()


def _feed_digest(events) -> str:
    h = hashlib.sha256()
    for ev in events:
        line = f"{ev.time.hex()},{ev.system_id},{ev.node_id},{ev.event_id},{ev.category.value}\n"
        h.update(line.encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "seed, options, count, digest",
    [
        (
            5,
            {"num_nodes": 32, "days": 200.0},
            220,
            "0b13d532a586e551d47fe0b40042c8c0c3123945e1add474376fd759936457a0",
        ),
        (
            11,
            {"num_nodes": 8, "days": 120.0, "base_rate_per_node_per_day": 0.2},
            262,
            "7b700b1832a75f7a1d5a11f099f267ff70dbefdf1481be8290a93383d37ef986",
        ),
    ],
)
def test_synthetic_feed_is_pinned(seed, options, count, digest):
    events = list(synthetic_source(seed=seed, **options))
    assert len(events) == count
    assert _feed_digest(events) == digest
