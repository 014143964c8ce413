"""Tests for Section III analyses: exact values on constructed data, and
shape recovery on generated archives."""

import numpy as np
import pytest

from repro.core.correlations import (
    hardware_detail,
    pairwise_matrix,
    pooled_baseline,
    pooled_conditional,
    same_node_any,
    same_node_by_target,
    same_node_by_trigger,
    same_rack_any,
    same_rack_by_trigger,
    same_system_any,
    same_system_by_trigger,
)
from repro.core.windows import Scope, WindowAnalysisError
from repro.records.dataset import HardwareGroup, SystemDataset
from repro.records.failure import FailureRecord
from repro.records.layout import regular_layout
from repro.records.taxonomy import Category, HardwareSubtype
from repro.records.timeutil import ObservationPeriod, Span


def build_system(failures, num_nodes=4, layout=False):
    return SystemDataset.from_records(
        system_id=1,
        group=HardwareGroup.GROUP1,
        num_nodes=num_nodes,
        processors_per_node=4,
        period=ObservationPeriod(0.0, 70.0),
        failures=tuple(
            FailureRecord(
                time=t, system_id=1, node_id=n, category=c, subtype=s
            )
            for t, n, c, s in failures
        ),
        layout=regular_layout(num_nodes, 2) if layout else None,
    )


HW = Category.HARDWARE
SW = Category.SOFTWARE


class TestConstructed:
    def test_same_node_any_exact(self):
        ds = build_system(
            [
                (1.0, 0, HW, None),
                (3.0, 0, SW, None),   # follow-up of trigger 1
                (30.0, 1, HW, None),  # no follow-up
            ]
        )
        res = same_node_any([ds], Span.WEEK)
        # Triggers: all 3 events (all have complete windows).
        # Trigger 1 -> event at 3.0 follows; trigger 2, 3 -> nothing.
        assert res.conditional.successes == 1
        assert res.conditional.trials == 3
        # Baseline: 4 nodes x 10 weeks; hit tiles: (0, wk0) and (1, wk4).
        assert res.baseline.successes == 2
        assert res.baseline.trials == 40

    def test_trigger_type_filter(self):
        ds = build_system(
            [
                (1.0, 0, HW, None),
                (2.0, 0, SW, None),
            ]
        )
        cond = pooled_conditional([ds], Span.WEEK, trigger_category=SW)
        assert cond.trials == 1  # only the SW event triggers
        assert cond.successes == 0  # nothing after it

    def test_target_type_filter(self):
        ds = build_system(
            [
                (1.0, 0, HW, None),
                (2.0, 0, SW, None),
            ]
        )
        cond = pooled_conditional(
            [ds], Span.WEEK, trigger_category=HW, target_category=SW
        )
        assert cond == type(cond)(1, 1)

    def test_subtype_targets(self):
        ds = build_system(
            [
                (1.0, 0, HW, HardwareSubtype.MEMORY),
                (2.0, 0, HW, HardwareSubtype.MEMORY),
                (40.0, 1, HW, HardwareSubtype.CPU),
            ]
        )
        results = hardware_detail([ds])
        mem = next(r for r in results if r.target is HardwareSubtype.MEMORY)
        assert mem.after_same.conditional.successes == 1
        assert mem.after_same.conditional.trials == 2

    def test_rack_scope_skips_layoutless_systems(self):
        no_layout = build_system([(1.0, 0, HW, None)])
        cond = pooled_conditional([no_layout], Span.WEEK, scope=Scope.RACK)
        assert cond.trials == 0

    def test_rack_scope_with_layout(self):
        # regular_layout(4, 2): racks {0,1}, {2,3}.
        ds = build_system(
            [
                (1.0, 0, HW, None),
                (2.0, 1, HW, None),
            ],
            layout=True,
        )
        cond = pooled_conditional([ds], Span.WEEK, scope=Scope.RACK)
        # Trigger at node 0: rack mate node 1 fails -> success.
        # Trigger at node 1: rack mate node 0 does not fail later.
        assert cond.successes == 1
        assert cond.trials == 2

    def test_empty_systems_rejected(self):
        with pytest.raises(WindowAnalysisError):
            pooled_baseline([], Span.WEEK)


class TestShapeOnArchive:
    """The analyses recover the effects injected by the generator."""

    def test_failures_raise_follow_up_probability(self, group1):
        for span in (Span.DAY, Span.WEEK):
            res = same_node_any(group1, span)
            assert res.factor > 3.0
            assert res.test.significant

    def test_group2_weaker_factors_than_group1(self, group1, group2):
        f1 = same_node_any(group1, Span.WEEK).factor
        f2 = same_node_any(group2, Span.WEEK).factor
        assert f1 > f2 > 1.0

    def test_env_and_net_strongest_triggers(self, group1):
        by = {
            r.trigger: r.comparison.factor
            for r in same_node_by_trigger(group1)
        }
        weakest_of_env_net = min(by[Category.ENVIRONMENT], by[Category.NETWORK])
        assert weakest_of_env_net > by[Category.HARDWARE]
        assert weakest_of_env_net > by[Category.HUMAN]

    def test_same_type_exceeds_any_type(self, group1):
        for r in same_node_by_target(group1):
            if r.after_same.conditional.trials < 20:
                continue
            assert (
                r.after_same.conditional.value
                >= r.after_any.conditional.value * 0.8
            )

    def test_memory_correlation_strong(self, group1):
        results = hardware_detail(group1)
        mem = next(r for r in results if r.target is HardwareSubtype.MEMORY)
        assert mem.after_same.factor > 5.0

    def test_pairwise_diagonal_dominates(self, group1):
        cells = pairwise_matrix(group1)
        by = {(c.trigger, c.target): c.comparison.factor for c in cells}
        for cat in (Category.HARDWARE, Category.SOFTWARE, Category.NETWORK):
            diag = by[(cat, cat)]
            off = [
                by[(other, cat)]
                for other in Category
                if other is not cat and not np.isnan(by[(other, cat)])
            ]
            assert diag > 0.8 * max(off)

    def test_rack_correlations_present_but_weaker(self, group1):
        with_layout = [ds for ds in group1 if ds.has_layout]
        node = same_node_any(with_layout, Span.WEEK)
        rack = same_rack_any(with_layout, Span.WEEK)
        assert 1.0 < rack.factor < node.factor

    def test_system_correlations_weakest(self, group1):
        rack = same_rack_any(
            [ds for ds in group1 if ds.has_layout], Span.WEEK
        )
        system = same_system_any(group1, Span.WEEK)
        assert system.factor < rack.factor
        assert system.conditional.value < 3 * system.baseline.value

    def test_system_by_trigger_runs(self, group1):
        results = same_system_by_trigger(group1)
        assert len(results) == 6

    def test_rack_by_trigger_env_strong(self, group1):
        with_layout = [ds for ds in group1 if ds.has_layout]
        by = {
            r.trigger: r.comparison.factor
            for r in same_rack_by_trigger(with_layout)
        }
        assert by[Category.ENVIRONMENT] > by[Category.HUMAN]
