"""Tests for Section IV analyses (failure-prone nodes)."""

import pytest

from repro.core.nodes import (
    NodeAnalysisError,
    breakdown_comparison,
    failures_per_node,
    per_type_equal_rates,
    prone_type_probabilities,
    room_area_analysis,
)
from repro.records.dataset import HardwareGroup, SystemDataset
from repro.records.failure import FailureRecord
from repro.records.layout import regular_layout
from repro.records.taxonomy import Category
from repro.records.timeutil import ObservationPeriod, Span


def build_system(failures, num_nodes=10, layout=False):
    return SystemDataset.from_records(
        system_id=18,
        group=HardwareGroup.GROUP1,
        num_nodes=num_nodes,
        processors_per_node=4,
        period=ObservationPeriod(0.0, 70.0),
        failures=tuple(
            FailureRecord(time=t, system_id=18, node_id=n, category=c)
            for t, n, c in failures
        ),
        layout=regular_layout(num_nodes, 5) if layout else None,
    )


HW, SW = Category.HARDWARE, Category.SOFTWARE


class TestFailuresPerNode:
    def test_identifies_prone_node(self):
        failures = [(float(i % 60), 0, HW) for i in range(50)]
        failures += [(float(i), i % 9 + 1, HW) for i in range(9)]
        r = failures_per_node(build_system(failures))
        assert r.prone_node == 0
        assert r.prone_factor > 5
        assert r.equal_rates.significant
        assert r.counts.sum() == 59

    def test_without_prone_rerun(self):
        # Skew beyond node 0 too: node 1 heavy.
        failures = [(float(i % 60), 0, HW) for i in range(50)]
        failures += [(float(i % 60) + 0.5, 1, HW) for i in range(30)]
        failures += [(float(i), 2 + i % 8, HW) for i in range(8)]
        r = failures_per_node(build_system(failures))
        assert r.equal_rates_without_prone is not None
        assert r.equal_rates_without_prone.significant

    def test_rejects_empty(self):
        with pytest.raises(NodeAnalysisError):
            failures_per_node(build_system([]))

    def test_on_archive(self, medium_archive):
        for sid in (18, 19, 20):
            r = failures_per_node(medium_archive[sid])
            assert r.prone_node == 0  # the injected login node
            assert r.prone_factor > 4
            assert r.equal_rates.significant
            # Paper: still rejected after removing node 0.
            assert r.equal_rates_without_prone.significant


class TestBreakdown:
    def test_shift_to_software(self):
        failures = [(float(i % 60), 0, SW) for i in range(30)]
        failures += [(float(i % 60), 0, HW) for i in range(10)]
        failures += [(float(i % 60), 1 + i % 9, HW) for i in range(40)]
        bd = breakdown_comparison(build_system(failures))
        assert bd.dominant(prone=True) is SW
        assert bd.dominant(prone=False) is HW
        assert bd.prone_shares[SW] == pytest.approx(0.75)

    def test_shares_sum_to_one(self, medium_archive):
        bd = breakdown_comparison(medium_archive[18])
        assert sum(bd.prone_shares.values()) == pytest.approx(1.0)
        assert sum(bd.rest_shares.values()) == pytest.approx(1.0)

    def test_rejects_one_sided(self):
        failures = [(1.0, 0, HW)]
        with pytest.raises(NodeAnalysisError):
            breakdown_comparison(build_system(failures), prone_node=0)

    def test_rest_dominated_by_hardware_on_archive(self, medium_archive):
        bd = breakdown_comparison(medium_archive[18])
        assert bd.dominant(prone=False) is HW


class TestProneTypeProbabilities:
    def test_exact_small_case(self):
        failures = [(float(7 * i + 1), 0, HW) for i in range(10)]  # every week
        failures += [(1.0, 1, HW)]
        cells = prone_type_probabilities(
            build_system(failures), prone_node=0, kinds=[HW], spans=[Span.WEEK]
        )
        (cell,) = cells
        assert cell.prone.estimate().value == pytest.approx(1.0)
        assert cell.rest.successes == 1
        assert cell.rest.trials == 90
        assert cell.factor > 50

    def test_archive_env_net_sw_strongest(self, medium_archive):
        cells = prone_type_probabilities(
            medium_archive[18], spans=[Span.WEEK]
        )
        by = {c.kind: c.factor for c in cells}
        soft_side = max(
            by[Category.NETWORK], by[Category.SOFTWARE], by[Category.ENVIRONMENT]
        )
        assert soft_side > by[Category.HARDWARE]

    def test_requires_two_nodes(self):
        ds = SystemDataset.from_records(
            system_id=18,
            group=HardwareGroup.GROUP1,
            num_nodes=1,
            processors_per_node=4,
            period=ObservationPeriod(0.0, 70.0),
            failures=(
                FailureRecord(time=1.0, system_id=18, node_id=0, category=HW),
            ),
        )
        with pytest.raises(NodeAnalysisError):
            prone_type_probabilities(ds, prone_node=0)


class TestPerTypeEqualRates:
    def test_uniform_type_not_rejected(self):
        failures = [(float(i), i % 10, HW) for i in range(40)]
        out = per_type_equal_rates(build_system(failures))
        assert out[HW] is not None
        assert not out[HW].significant
        assert out[SW] is None  # no software failures at all


class TestRoomArea:
    def test_requires_layout(self):
        with pytest.raises(NodeAnalysisError):
            room_area_analysis(build_system([(1.0, 0, HW)]))

    def test_no_area_effect_beyond_prone_node(self, medium_archive):
        # The generator injects no room-area effect (the paper found
        # none); with the prone node excluded (the default), the test
        # should not detect an area pattern.
        r = room_area_analysis(medium_archive[19])
        assert r.test.permutations >= 100
        assert not r.test.significant
        assert sum(r.area_nodes.values()) == medium_archive[19].num_nodes - 1

    def test_including_prone_node_rediscovers_it(self, medium_archive):
        full = room_area_analysis(medium_archive[19], exclude_prone=False)
        assert sum(full.area_nodes.values()) == medium_archive[19].num_nodes
        assert sum(full.area_counts.values()) == len(
            medium_archive[19].failure_table
        )
