"""The generator's record-building path, kept as an independent oracle.

The generator builds the job and temperature logs as columns
(:class:`~repro.records.usage.JobColumns`,
:class:`~repro.records.environment.TemperatureColumns`) straight from
its arrays.  It used to build one :class:`JobRecord` per job from the
usage-trace arrays and one :class:`TemperatureReading` per sample from
the sample arrays, and :class:`~repro.records.dataset.SystemDataset`
then sorted them.  This module keeps that record-building code.  Tests
build the records, sort them the way a dataset does, and require the
columns of the sorted records to equal the generator's, array for array
and dtype for dtype.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from repro.records.environment import TemperatureReading
from repro.records.usage import JobRecord
from repro.simulate.usage import UsageTraces


def reference_jobs(
    usage: UsageTraces, system_id: int, failed: np.ndarray
) -> list[JobRecord]:
    """One :class:`JobRecord` per job of ``usage``; job ``j`` is the
    ``j``-th submitted and ``failed[j]`` is its node-failure flag."""
    offsets = usage.job_node_offsets
    ppn = usage.processors_per_node
    failed_l = failed.tolist()
    submit_l = usage.job_submit.tolist()
    dispatch_l = usage.job_dispatch.tolist()
    end_l = usage.job_end.tolist()
    users_l = usage.job_user.tolist()
    nodes_l = usage.job_nodes.tolist()
    offsets_l = offsets.tolist()
    return [
        JobRecord(
            submit_time=submit_l[j],
            system_id=system_id,
            job_id=j,
            dispatch_time=dispatch_l[j],
            end_time=end_l[j],
            user_id=users_l[j],
            num_processors=(offsets_l[j + 1] - offsets_l[j]) * ppn,
            node_ids=tuple(nodes_l[offsets_l[j] : offsets_l[j + 1]]),
            failed_due_to_node=failed_l[j],
        )
        for j in range(usage.n_jobs)
    ]


def reference_temperatures(
    system_id: int, times: np.ndarray, node_ids: np.ndarray, celsius: np.ndarray
) -> list[TemperatureReading]:
    """One :class:`TemperatureReading` per sample of the three arrays."""
    return list(
        map(
            TemperatureReading,
            times.tolist(),
            repeat(system_id),
            node_ids.tolist(),
            celsius.tolist(),
        )
    )
