"""Equivalence of the batched window kernels with the per-cell oracles.

The batched kernels must produce *exactly* the per-cell ``Counts`` of
:mod:`tests.core.test_windows_reference` -- every reduction is an
integer count of the same float comparisons, so batching changes
evaluation order but not a single value.  These tests pin that on the
medium fixture across scopes, spans and event kinds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.records.dataset import EventIndex
from repro.records.taxonomy import Category, HardwareSubtype, all_categories
from repro.records.timeutil import ALL_SPANS, Span
from repro.core.windows import (
    Scope,
    WindowAnalysisError,
    baseline_counts_batch,
    conditional_counts_batch,
)
from tests.core.test_windows_reference import percell_baseline, percell_conditional


def _indexes(ds, kinds):
    out = []
    for kind in kinds:
        if kind is None or isinstance(kind, Category):
            out.append(ds.failure_table.events(category=kind))
        else:
            out.append(ds.failure_table.events(subtype=kind))
    return out


TRIGGER_KINDS = [None, *all_categories(), HardwareSubtype.MEMORY]
TARGET_KINDS = [None, Category.HARDWARE, Category.SOFTWARE, HardwareSubtype.CPU]


class TestConditionalBatchEquivalence:
    @pytest.mark.parametrize("scope", [Scope.NODE, Scope.SYSTEM])
    def test_matches_per_cell_exactly(self, group1, scope):
        ds = group1[0]
        triggers = _indexes(ds, TRIGGER_KINDS)
        targets = _indexes(ds, TARGET_KINDS)
        grid = conditional_counts_batch(
            triggers,
            targets,
            ds.period,
            ALL_SPANS,
            scope=scope,
            num_nodes=ds.num_nodes,
        )
        for i, trig in enumerate(triggers):
            for j, targ in enumerate(targets):
                for k, span in enumerate(ALL_SPANS):
                    expected = percell_conditional(
                        trig,
                        targ,
                        ds.period,
                        span,
                        scope=scope,
                        num_nodes=ds.num_nodes,
                    )
                    assert grid[i][j][k] == expected

    def test_matches_per_cell_rack_scope(self, group1):
        ds = next(s for s in group1 if s.rack_of is not None)
        triggers = _indexes(ds, TRIGGER_KINDS)
        targets = _indexes(ds, TARGET_KINDS)
        grid = conditional_counts_batch(
            triggers,
            targets,
            ds.period,
            [Span.DAY, Span.WEEK],
            scope=Scope.RACK,
            rack_of=ds.rack_of,
            num_nodes=ds.num_nodes,
        )
        for i, trig in enumerate(triggers):
            for j, targ in enumerate(targets):
                for k, span in enumerate([Span.DAY, Span.WEEK]):
                    expected = percell_conditional(
                        trig,
                        targ,
                        ds.period,
                        span,
                        scope=Scope.RACK,
                        rack_of=ds.rack_of,
                        num_nodes=ds.num_nodes,
                    )
                    assert grid[i][j][k] == expected

    def test_empty_trigger_stream(self, group1):
        ds = group1[0]
        empty = ds.failure_table.events(subtype=HardwareSubtype.MIDPLANE)
        target = ds.failure_table.events()
        if empty.times.size:
            pytest.skip("fixture realisation has midplane failures")
        grid = conditional_counts_batch(
            [empty], [target], ds.period, ALL_SPANS, num_nodes=ds.num_nodes
        )
        for k, span in enumerate(ALL_SPANS):
            assert grid[0][0][k] == percell_conditional(
                empty, target, ds.period, span
            )

    def test_rack_scope_requires_mapping(self, group1):
        ds = group1[0]
        idx = ds.failure_table.events()
        with pytest.raises(WindowAnalysisError):
            conditional_counts_batch(
                [idx],
                [idx],
                ds.period,
                [Span.WEEK],
                scope=Scope.RACK,
                num_nodes=ds.num_nodes,
            )

    @pytest.mark.parametrize("scope", [Scope.NODE, Scope.SYSTEM])
    def test_rejects_events_beyond_num_nodes(self, group1, scope):
        ds = group1[0]
        trigger = EventIndex(np.array([1.0]), np.array([0]))
        target = EventIndex(np.array([2.0]), np.array([7]))
        for triggers, targets in (([trigger], [target]), ([target], [trigger])):
            with pytest.raises(WindowAnalysisError, match="8 nodes"):
                conditional_counts_batch(
                    triggers,
                    targets,
                    ds.period,
                    [Span.WEEK],
                    num_nodes=5,
                    scope=scope,
                )


class TestBaselineBatchEquivalence:
    def test_matches_per_cell_exactly(self, group1):
        ds = group1[0]
        targets = _indexes(ds, TARGET_KINDS)
        grid = baseline_counts_batch(
            targets, ds.num_nodes, ds.period, ALL_SPANS
        )
        for j, targ in enumerate(targets):
            for k, span in enumerate(ALL_SPANS):
                expected = percell_baseline(targ, ds.num_nodes, ds.period, span)
                assert grid[j][k] == expected

    def test_matches_per_cell_with_node_subset(self, group1):
        ds = group1[0]
        targets = _indexes(ds, [None, Category.HARDWARE])
        subset = np.arange(0, ds.num_nodes, 2, dtype=np.int64)
        grid = baseline_counts_batch(
            targets, ds.num_nodes, ds.period, ALL_SPANS, node_subset=subset
        )
        for j, targ in enumerate(targets):
            for k, span in enumerate(ALL_SPANS):
                expected = percell_baseline(
                    targ, ds.num_nodes, ds.period, span, node_subset=subset
                )
                assert grid[j][k] == expected

    def test_rejects_events_beyond_num_nodes(self, group1):
        ds = group1[0]
        target = EventIndex(np.array([1.0, 2.0]), np.array([0, 7]))
        with pytest.raises(WindowAnalysisError, match="8 nodes"):
            baseline_counts_batch([target], 5, ds.period, [Span.WEEK])
