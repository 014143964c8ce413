"""The tentpole guarantee: streaming counts == batch grids, exactly.

Replaying a full archive through the streaming state must produce
conditional and baseline count grids *integer-equal* to the batch
kernels in :mod:`repro.core.windows` at every scope -- not close, not
within tolerance, equal.  These tests drive the medium fixture (~12k
failures across 11 systems, with and without rack layouts) through the
replay path and assert the full cross-product.
"""

from __future__ import annotations

import random

import pytest

from repro.core.windows import Scope
from repro.stream import (
    OnlineAnalysis,
    StreamAnalysisState,
    archive_source,
    replay_archive,
    verify_equivalence,
)


@pytest.fixture(scope="module")
def replayed(medium_archive):
    consumer = OnlineAnalysis(StreamAnalysisState())
    replay_archive(medium_archive, consumer, batch_size=512)
    return consumer


class TestReplayEquivalence:
    def test_every_event_accepted(self, medium_archive, replayed):
        assert replayed.totals.accepted == medium_archive.total_failures()
        assert replayed.totals.late == 0
        assert replayed.totals.duplicate == 0

    def test_grids_equal_batch_exactly(self, medium_archive, replayed):
        report = verify_equivalence(medium_archive, replayed.state)
        assert report.ok, report.render()
        # NODE (7x7x3) + SYSTEM (7x1x3) + baseline (7x3) per system,
        # plus RACK (7x1x3) for layout systems: the sweep is not tiny.
        assert report.cells > 2000

    def test_batch_size_does_not_matter(self, medium_archive, replayed):
        other = OnlineAnalysis(StreamAnalysisState())
        replay_archive(medium_archive, other, batch_size=4096)
        assert other.state.digest() == replayed.state.digest()

    def test_shuffled_delivery_within_lateness_still_equal(
        self, medium_archive
    ):
        # Perturb delivery order by up to 4 days, run with a 5-day
        # out-of-order tolerance: nothing drops, and the final grids
        # still equal the batch results exactly.
        events = list(archive_source(medium_archive))
        rng = random.Random(17)
        keyed = [
            (ev.time + rng.uniform(0.0, 4.0), i, ev)
            for i, ev in enumerate(events)
        ]
        keyed.sort(key=lambda item: (item[0], item[1]))
        consumer = OnlineAnalysis(StreamAnalysisState(lateness_days=5.0))
        consumer.state.register_archive(medium_archive)
        shuffled = [ev for _, _, ev in keyed]
        for start in range(0, len(shuffled), 512):
            consumer.process_batch(shuffled[start : start + 512])
        consumer.finalize()
        assert consumer.totals.late == 0
        report = verify_equivalence(medium_archive, consumer.state)
        assert report.ok, report.render()

    def test_duplicated_delivery_still_equal(self, medium_archive):
        # Deliver every event twice (within the dedup window): the
        # duplicates drop and the grids still equal batch exactly.
        events = list(archive_source(medium_archive))
        doubled = [ev for ev in events for _ in range(2)]
        consumer = OnlineAnalysis(StreamAnalysisState(lateness_days=2.0))
        consumer.state.register_archive(medium_archive)
        for start in range(0, len(doubled), 512):
            consumer.process_batch(doubled[start : start + 512])
        consumer.finalize()
        assert consumer.totals.duplicate == len(events)
        report = verify_equivalence(medium_archive, consumer.state)
        assert report.ok, report.render()

    def test_mismatch_is_detected(self, medium_archive, replayed):
        # Sanity-check the verifier itself: corrupt one streaming cell
        # and the sweep must notice.
        system_id = sorted(replayed.state.systems)[0]
        cells = replayed.state.systems[system_id].conditional_cells(Scope.NODE)
        cells[0, 0, 0, 0] += 1
        try:
            report = verify_equivalence(medium_archive, replayed.state)
            assert not report.ok
            assert len(report.mismatches) == 1
        finally:
            cells[0, 0, 0, 0] -= 1
