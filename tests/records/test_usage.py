"""Unit and property tests for job records and usage summaries."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.users import user_failure_rates
from repro.records.timeutil import ObservationPeriod
from repro.records.usage import (
    JobColumns,
    JobRecord,
    UsageError,
    node_usage_summaries,
    sorted_distinct,
    user_usage_summaries,
)


def job(
    job_id=0,
    submit=0.0,
    dispatch=None,
    end=None,
    user=0,
    procs=4,
    nodes=(0,),
    failed=False,
):
    dispatch = submit if dispatch is None else dispatch
    end = dispatch + 1.0 if end is None else end
    return JobRecord(
        submit_time=submit,
        system_id=20,
        job_id=job_id,
        dispatch_time=dispatch,
        end_time=end,
        user_id=user,
        num_processors=procs,
        node_ids=tuple(nodes),
        failed_due_to_node=failed,
    )


def cols(jobs):
    return JobColumns.from_records(jobs)


class TestJobRecord:
    def test_valid(self):
        j = job(submit=1.0, dispatch=1.5, end=3.5)
        assert j.runtime_days == 2.0
        assert j.processor_days == 8.0

    def test_rejects_dispatch_before_submit(self):
        with pytest.raises(UsageError):
            job(submit=2.0, dispatch=1.0)

    def test_rejects_end_before_dispatch(self):
        with pytest.raises(UsageError):
            job(submit=0.0, dispatch=1.0, end=0.5)

    def test_rejects_no_nodes(self):
        with pytest.raises(UsageError):
            job(nodes=())

    def test_rejects_duplicate_nodes(self):
        with pytest.raises(UsageError):
            job(nodes=(1, 1))

    def test_rejects_zero_processors(self):
        with pytest.raises(UsageError):
            job(procs=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["submit", "dispatch", "end"])
    def test_rejects_non_finite_times(self, field, value):
        match = f"must be finite, .*{field}_time={value!r}"
        with pytest.raises(UsageError, match=match):
            job(**{field: value})

    def test_zero_runtime_allowed(self):
        j = job(submit=0.0, dispatch=1.0, end=1.0)
        assert j.runtime_days == 0.0


class TestJobColumns:
    JOBS = [
        job(job_id=0, submit=1.0, nodes=(0, 1)),
        job(job_id=2, submit=0.5, nodes=(2,)),
        job(job_id=1, submit=1.0, nodes=(3, 0, 4)),
    ]

    def test_in_record_order_sorts_like_records(self):
        cols = JobColumns.from_records(self.JOBS).in_record_order()
        want = JobColumns.from_records(sorted(self.JOBS))
        assert cols.job_ids.tolist() == [2, 0, 1]
        for name in ("submit_times", "job_ids", "node_offsets", "node_ids"):
            assert np.array_equal(getattr(cols, name), getattr(want, name))

    def test_in_record_order_keeps_sorted_columns(self):
        cols = JobColumns.from_records(sorted(self.JOBS))
        assert cols.in_record_order() is cols

    def test_check_passes_valid_jobs(self):
        JobColumns.from_records(self.JOBS).check()

    def test_check_raises_usage_error(self):
        cols = JobColumns.from_records(self.JOBS)
        cols.end_times[2] = -1.0
        cols.node_ids[0] = 1
        with pytest.raises(UsageError, match="^2 invalid jobs, the first with job_id 0$"):
            cols.check()


class TestNodeUsage:
    PERIOD = ObservationPeriod(0.0, 10.0)

    def test_empty_log(self):
        out = node_usage_summaries(cols([]), 3, self.PERIOD)
        assert len(out) == 3
        assert all(u.num_jobs == 0 and u.utilization == 0.0 for u in out)

    def test_single_job(self):
        out = node_usage_summaries(
            cols([job(dispatch=0.0, end=5.0, nodes=(1,))]), 3, self.PERIOD
        )
        assert out[1].num_jobs == 1
        assert out[1].utilization == pytest.approx(0.5)
        assert out[0].utilization == 0.0

    def test_overlapping_jobs_merge(self):
        jobs = [
            job(job_id=0, submit=0.0, dispatch=0.0, end=4.0, nodes=(0,)),
            job(job_id=1, submit=2.0, dispatch=2.0, end=6.0, nodes=(0,)),
        ]
        out = node_usage_summaries(cols(jobs), 1, self.PERIOD)
        assert out[0].num_jobs == 2
        assert out[0].utilization == pytest.approx(0.6)  # union [0, 6)

    def test_multi_node_job_counts_on_each(self):
        out = node_usage_summaries(
            cols([job(dispatch=0.0, end=2.0, nodes=(0, 2))]), 3, self.PERIOD
        )
        assert out[0].num_jobs == 1
        assert out[2].num_jobs == 1
        assert out[1].num_jobs == 0

    def test_clips_to_period(self):
        out = node_usage_summaries(
            cols([job(submit=8.0, dispatch=8.0, end=20.0)]), 1, self.PERIOD
        )
        assert out[0].utilization == pytest.approx(0.2)

    def test_rejects_out_of_range_node(self):
        with pytest.raises(UsageError):
            node_usage_summaries(cols([job(nodes=(5,))]), 3, self.PERIOD)

    @given(
        st.lists(
            st.tuples(
                st.floats(0, 8),      # dispatch
                st.floats(0.1, 3),    # duration
                st.integers(0, 2),    # node
            ),
            max_size=20,
        )
    )
    def test_utilization_bounded(self, specs):
        jobs = [
            job(job_id=i, submit=d, dispatch=d, end=d + dur, nodes=(n,))
            for i, (d, dur, n) in enumerate(specs)
        ]
        out = node_usage_summaries(cols(jobs), 3, self.PERIOD)
        for u in out:
            assert 0.0 <= u.utilization <= 1.0
            assert u.busy_days <= self.PERIOD.length + 1e-9


class TestUserUsage:
    def test_aggregation(self):
        jobs = [
            job(job_id=0, user=1, dispatch=0.0, end=1.0, procs=4, failed=True),
            job(job_id=1, user=1, dispatch=0.0, end=1.0, procs=4),
            job(job_id=2, user=2, dispatch=0.0, end=2.0, procs=8),
        ]
        out = user_usage_summaries(cols(jobs))
        assert out[0].user_id == 2  # 16 processor-days > 8
        assert out[0].processor_days == pytest.approx(16.0)
        by_user = {u.user_id: u for u in out}
        assert by_user[1].node_failed_jobs == 1
        assert by_user[1].failures_per_processor_day == pytest.approx(1 / 8.0)

    def test_zero_exposure_rate(self):
        out = user_usage_summaries(
            cols([job(submit=0.0, dispatch=1.0, end=1.0, user=5)])
        )
        assert out[0].failures_per_processor_day == 0.0

    def test_heaviest_users_truncates(self):
        jobs = [
            job(job_id=i, user=i, dispatch=0.0, end=float(i + 1))
            for i in range(10)
        ]
        top = user_usage_summaries(cols(jobs))[:3]
        assert len(top) == 3
        assert top[0].user_id == 9

    def test_heaviest_users_rejects_bad_k(self, tiny_archive):
        with pytest.raises(UsageError):
            user_failure_rates(tiny_archive[20], top_k=0)


class TestSortedDistinct:
    """The sort-based distinct helper equals ``np.unique`` with ``==``."""

    @given(st.lists(st.integers(-(2**62), 2**62), max_size=200))
    def test_matches_unique(self, values):
        keys = np.array(values, dtype=np.int64)
        got = sorted_distinct(keys)
        assert got.dtype == keys.dtype
        assert got.tolist() == np.unique(keys).tolist()

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=60))
    def test_matches_unique_with_repeats_and_2d(self, values):
        keys = np.array(values * 2, dtype=np.int64).reshape(2, -1)
        assert sorted_distinct(keys).tolist() == np.unique(keys).tolist()

    def test_empty(self):
        assert sorted_distinct(np.empty(0, dtype=np.int64)).size == 0
