"""The columnar log summaries against the record loops they replaced.

``reference_summaries.py`` keeps the loops over :class:`JobRecord` and
:class:`TemperatureReading` objects.  The package summarizes the
:class:`JobColumns` / :class:`TemperatureColumns` every dataset holds;
on the same log, in the same row order, both must give the same bits:
every float field is compared through ``float.hex`` (so NaN equals NaN
and ``-0.0`` differs from ``0.0``), and a node id out of range raises
the same error with the same message.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import get_cache
from repro.records.environment import (
    EnvironmentRecordError,
    TemperatureColumns,
    TemperatureReading,
    summarize_temperatures,
)
from repro.records.timeutil import ObservationPeriod
from repro.records.usage import (
    JobColumns,
    JobRecord,
    UsageError,
    node_usage_summaries,
    user_usage_summaries,
)
from tests.records.reference_summaries import (
    reference_node_usage_summaries,
    reference_summarize_temperatures,
    reference_user_usage_summaries,
)
from tests.records.record_views import job_records, temperature_records

MAX_NODES = 8

#: Times on a coarse grid tie often (equal starts, ends touching the
#: next start, zero runtimes); free floats exercise the rounding.
times = st.one_of(
    st.integers(0, 12).map(float),
    st.floats(0.0, 12.0, allow_nan=False, allow_infinity=False),
)


def bits(summaries) -> list[tuple]:
    """Each summary's fields, floats as ``float.hex``."""
    return [
        tuple(
            getattr(s, name).hex()
            if isinstance(getattr(s, name), float)
            else getattr(s, name)
            for name in s.__slots__
        )
        for s in summaries
    ]


@st.composite
def jobs(draw, num_nodes: int = MAX_NODES) -> list[JobRecord]:
    """Job logs on nodes ``[0, num_nodes)``; short runtimes leave gaps,
    so a node's busy time can add up a dozen separate runs."""
    runtimes = st.one_of(st.just(0.0), times.map(lambda t: t / 16), times)
    out = []
    for job_id in range(draw(st.integers(0, 60))):
        submit = draw(times)
        dispatch = submit + draw(times) / 4
        end = dispatch + draw(runtimes)
        out.append(
            JobRecord(
                submit_time=submit,
                system_id=20,
                job_id=job_id,
                dispatch_time=dispatch,
                end_time=end,
                user_id=draw(st.integers(0, 4)),
                num_processors=draw(st.sampled_from([1, 3, 4, 64, 1000])),
                node_ids=tuple(
                    draw(
                        st.lists(
                            st.integers(0, num_nodes - 1),
                            min_size=1,
                            max_size=min(num_nodes, 4),
                            unique=True,
                        )
                    )
                ),
                failed_due_to_node=draw(st.booleans()),
            )
        )
    return out


@st.composite
def periods(draw) -> ObservationPeriod:
    start = draw(st.sampled_from([0.0, 0.5, 2.0]))
    return ObservationPeriod(start, start + draw(st.sampled_from([1.0, 5.5, 10.0])))


@st.composite
def readings(draw) -> list[TemperatureReading]:
    celsius = st.one_of(
        st.sampled_from([40.0, 39.999, 40.001, 25.0]),
        st.floats(-50.0, 150.0, allow_nan=False, allow_infinity=False),
    )
    return [
        TemperatureReading(
            time=draw(times),
            system_id=20,
            node_id=draw(st.integers(0, MAX_NODES - 1)),
            celsius=draw(celsius),
        )
        for _ in range(draw(st.integers(0, 40)))
    ]


def outcome(summarize, *args):
    """The summary's bits, or the type and message of what it raised."""
    try:
        return bits(summarize(*args))
    except (UsageError, EnvironmentRecordError) as exc:
        return type(exc), str(exc)


class TestUsageSummaries:
    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        num_nodes=st.integers(1, MAX_NODES),
        period=periods(),
    )
    def test_node_usage_matches_record_loop(self, data, num_nodes, period):
        # One draw in four may place a job on a node past the last.
        log = data.draw(jobs(num_nodes + data.draw(st.sampled_from([0, 0, 0, 1]))))
        assert outcome(
            node_usage_summaries, JobColumns.from_records(log), num_nodes, period
        ) == outcome(reference_node_usage_summaries, log, num_nodes, period)

    @pytest.mark.parametrize("seed", range(5))
    def test_many_runs_per_node(self, seed):
        """Hundreds of short jobs leave dozens of separate busy runs per
        node; their lengths must add up left to right, which a pairwise
        sum (``np.sum``) does not do."""
        rng = np.random.default_rng(seed)
        starts = rng.uniform(0.0, 12.0, 300)
        log = [
            JobRecord(
                submit_time=float(t),
                system_id=20,
                job_id=i,
                dispatch_time=float(t),
                end_time=float(t + rng.exponential(0.1)),
                user_id=int(rng.integers(0, 30)),
                num_processors=int(rng.integers(1, 65)),
                node_ids=(int(rng.integers(0, 3)),),
                failed_due_to_node=bool(rng.random() < 0.1),
            )
            for i, t in enumerate(starts)
        ]
        period = ObservationPeriod(0.0, 10.0)
        assert bits(
            node_usage_summaries(JobColumns.from_records(log), 3, period)
        ) == bits(reference_node_usage_summaries(log, 3, period))
        assert bits(user_usage_summaries(JobColumns.from_records(log))) == bits(
            reference_user_usage_summaries(log)
        )

    @settings(max_examples=300, deadline=None)
    @given(log=jobs())
    def test_user_usage_matches_record_loop(self, log):
        assert bits(user_usage_summaries(JobColumns.from_records(log))) == bits(
            reference_user_usage_summaries(log)
        )

    def test_archive_system(self, tiny_archive):
        ds = tiny_archive[20]
        cache = get_cache(ds)
        assert bits(cache.node_usage()) == bits(
            reference_node_usage_summaries(job_records(ds), ds.num_nodes, ds.period)
        )
        assert bits(cache.user_usage()) == bits(
            reference_user_usage_summaries(job_records(ds))
        )


class TestTemperatureSummaries:
    @settings(max_examples=300, deadline=None)
    @given(log=readings(), num_nodes=st.integers(1, MAX_NODES))
    def test_matches_record_loop(self, log, num_nodes):
        assert outcome(
            summarize_temperatures, TemperatureColumns.from_records(log), num_nodes
        ) == outcome(reference_summarize_temperatures, log, num_nodes)

    def test_archive_system(self, tiny_archive):
        ds = tiny_archive[20]
        assert bits(get_cache(ds).temperature_summaries()) == bits(
            reference_summarize_temperatures(temperature_records(ds), ds.num_nodes)
        )

    def test_unsampled_nodes_compare_equal(self):
        """NaN aggregates of a node without samples compare equal."""
        log = [TemperatureReading(time=0.0, system_id=20, node_id=0, celsius=41.0)]
        got = summarize_temperatures(TemperatureColumns.from_records(log), 2)
        want = reference_summarize_temperatures(log, 2)
        assert got[0] == want[0]
        assert got[1] != want[1]  # two NaNs are never ``==`` ...
        assert bits(got) == bits(want)  # ... but have the same bits


@pytest.mark.parametrize("num_nodes", [0, -1])
def test_rejects_no_nodes(num_nodes):
    period = ObservationPeriod(0.0, 1.0)
    empty = JobColumns.from_records([])
    assert outcome(node_usage_summaries, empty, num_nodes, period) == outcome(
        reference_node_usage_summaries, [], num_nodes, period
    )
    assert outcome(
        summarize_temperatures, TemperatureColumns.from_records([]), num_nodes
    ) == outcome(reference_summarize_temperatures, [], num_nodes)
