"""Unit and property tests for time primitives."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.records.timeutil import (
    ObservationPeriod,
    Span,
    TimeError,
    count_windows,
    overlapping_window_starts,
    tile_windows,
    window_index,
)


class TestSpan:
    def test_days(self):
        assert Span.DAY.days == 1.0
        assert Span.WEEK.days == 7.0
        assert Span.MONTH.days == 30.0


class TestObservationPeriod:
    def test_basic(self):
        p = ObservationPeriod(0.0, 100.0)
        assert p.length == 100.0
        assert p.contains(0.0)
        assert p.contains(99.999)
        assert not p.contains(100.0)
        assert not p.contains(-0.1)

    def test_rejects_empty(self):
        with pytest.raises(TimeError):
            ObservationPeriod(5.0, 5.0)

    def test_rejects_inverted(self):
        with pytest.raises(TimeError):
            ObservationPeriod(10.0, 5.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(TimeError):
            ObservationPeriod(0.0, float("inf"))


class TestTiling:
    def test_count_windows_exact(self):
        p = ObservationPeriod(0.0, 70.0)
        assert count_windows(p, Span.WEEK) == 10
        assert count_windows(p, Span.DAY) == 70
        assert count_windows(p, Span.MONTH) == 2

    def test_count_windows_discards_partial(self):
        p = ObservationPeriod(0.0, 69.9)
        assert count_windows(p, Span.WEEK) == 9

    def test_count_windows_too_short(self):
        p = ObservationPeriod(0.0, 5.0)
        with pytest.raises(TimeError):
            count_windows(p, Span.WEEK)

    def test_tile_windows_cover_prefix(self):
        p = ObservationPeriod(10.0, 45.0)
        tiles = list(tile_windows(p, Span.WEEK))
        assert tiles[0] == (10.0, 17.0)
        assert tiles[-1] == (38.0, 45.0)
        assert len(tiles) == 5

    @given(
        start=st.floats(0, 100),
        length=st.floats(31, 5000),
        span=st.sampled_from(list(Span)),
    )
    def test_tiles_are_disjoint_and_contiguous(self, start, length, span):
        p = ObservationPeriod(start, start + length)
        tiles = list(tile_windows(p, span))
        assert len(tiles) == count_windows(p, span)
        for (a_lo, a_hi), (b_lo, b_hi) in zip(tiles, tiles[1:]):
            assert a_hi == pytest.approx(b_lo)
            assert a_hi - a_lo == pytest.approx(span.days)


class TestWindowIndex:
    def test_maps_inside(self):
        p = ObservationPeriod(0.0, 21.0)
        idx = window_index(np.array([0.0, 6.9, 7.0, 20.9]), p, Span.WEEK)
        assert idx.tolist() == [0, 0, 1, 2]

    def test_marks_outside(self):
        p = ObservationPeriod(0.0, 20.0)
        # 20 days -> 2 complete weeks; t=15 is in the discarded partial.
        idx = window_index(np.array([-1.0, 15.0, 25.0]), p, Span.WEEK)
        assert idx.tolist() == [-1, -1, -1]

    def test_offset_period(self):
        p = ObservationPeriod(100.0, 130.0)
        idx = window_index(np.array([100.0, 106.5, 107.0]), p, Span.WEEK)
        assert idx.tolist() == [0, 0, 1]

    @given(
        times=st.lists(st.floats(0, 999), min_size=1, max_size=50),
        span=st.sampled_from(list(Span)),
    )
    def test_index_consistent_with_tiles(self, times, span):
        p = ObservationPeriod(0.0, 1000.0)
        idx = window_index(np.array(times), p, span)
        n = count_windows(p, span)
        for t, i in zip(times, idx):
            if i >= 0:
                assert i < n
                assert i * span.days <= t < (i + 1) * span.days


class TestSlidingWindows:
    def test_counts(self):
        p = ObservationPeriod(0.0, 30.0)
        starts = overlapping_window_starts(p, Span.WEEK, step=1.0)
        assert starts[0] == 0.0
        assert starts[-1] <= 23.0
        assert len(starts) == 24

    def test_rejects_bad_step(self):
        p = ObservationPeriod(0.0, 30.0)
        with pytest.raises(TimeError):
            overlapping_window_starts(p, Span.WEEK, step=0.0)

    def test_rejects_short_period(self):
        p = ObservationPeriod(0.0, 5.0)
        with pytest.raises(TimeError):
            overlapping_window_starts(p, Span.WEEK, step=1.0)
