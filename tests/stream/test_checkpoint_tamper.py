"""A tampered checkpoint restores the same state or is refused.

A checkpoint stores the events a stream admitted and every count
derived from them: resolution pointers and conditional counters in
``meta.json``, baseline keys in the ``.npz``.  Restore rebuilds the
derived parts from the stores with the ingest path's own code and
compares them with the file, so an edit to any derived part raises
:class:`StreamStateError` instead of restoring a different state.

The ``stats`` disposition counters are operational state that the
digest leaves out: an edit there restores the same digest.  A store
edit that leaves every derived count unchanged still restores; only a
content hash could catch it.
"""

from __future__ import annotations

import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stream import (
    OnlineAnalysis,
    StreamAnalysisConfig,
    StreamAnalysisState,
    StreamStateError,
    load_checkpoint,
    replay_archive,
    write_checkpoint,
)

_META = "ckpt-000001.meta.json"
_NPZ = "ckpt-000001.state.npz"


class _Checkpoint:
    """One written checkpoint, held in memory for editing."""

    def __init__(self, directory: Path, digest: str) -> None:
        self.digest = digest
        self.meta = json.loads((directory / _META).read_text())
        with np.load(directory / _NPZ) as payload:
            self.arrays = {key: payload[key] for key in payload.files}

    def load(self, meta: dict, arrays: dict[str, np.ndarray]) -> StreamAnalysisState:
        """``load_checkpoint`` of an edited copy."""
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp)
            (directory / _META).write_text(json.dumps(meta, sort_keys=True))
            with open(directory / _NPZ, "wb") as handle:
                np.savez(handle, **arrays)
            (directory / "LATEST").write_text("1\n")
            return load_checkpoint(directory)

    def edited_meta(self) -> dict:
        return json.loads(json.dumps(self.meta))


@pytest.fixture(scope="module")
def checkpoint(tiny_archive, tmp_path_factory):
    """A checkpoint of the tiny archive, streamed half way."""
    consumer = OnlineAnalysis(
        StreamAnalysisState(StreamAnalysisConfig(lateness_days=2.0))
    )
    replay_archive(
        tiny_archive,
        consumer,
        batch_size=128,
        max_events=tiny_archive.total_failures() // 2,
        finalize=False,
    )
    directory = tmp_path_factory.mktemp("half-streamed")
    assert write_checkpoint(consumer.state, directory).sequence == 1
    return _Checkpoint(directory, consumer.state.digest())


def _integer_paths(checkpoint: _Checkpoint, parts: tuple[str, ...]) -> list:
    """``(system, part, row, column)`` of every integer of ``parts``."""
    return [
        (i, part, row, column)
        for i, system in enumerate(checkpoint.meta["systems"])
        for part in parts
        for row, values in enumerate(system[part])
        for column, value in enumerate(values)
        if isinstance(value, int)
    ]


def test_checkpoint_restores_intact(checkpoint):
    state = checkpoint.load(checkpoint.meta, checkpoint.arrays)
    assert state.digest() == checkpoint.digest


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_derived_count_edit_refused(checkpoint, data):
    paths = _integer_paths(checkpoint, ("resolved", "cond"))
    i, part, row, column = data.draw(st.sampled_from(paths))
    meta = checkpoint.edited_meta()
    meta["systems"][i][part][row][column] += 1
    with pytest.raises(StreamStateError, match=f"{part} does not match"):
        checkpoint.load(meta, checkpoint.arrays)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_baseline_key_edit_refused(checkpoint, data):
    keys = sorted(
        key
        for key, values in checkpoint.arrays.items()
        if ".b." in key and values.size
    )
    key = data.draw(st.sampled_from(keys))
    position = data.draw(st.integers(0, checkpoint.arrays[key].size - 1))
    arrays = dict(checkpoint.arrays)
    arrays[key] = arrays[key].copy()
    arrays[key][position] += data.draw(st.sampled_from((-1, 1)))
    with pytest.raises(StreamStateError, match=f"{re.escape(key)} does not match"):
        checkpoint.load(checkpoint.meta, arrays)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_stats_edit_restores_the_same_digest(checkpoint, data):
    i = data.draw(st.integers(0, len(checkpoint.meta["systems"]) - 1))
    meta = checkpoint.edited_meta()
    stats = meta["systems"][i]["stats"]
    stats[data.draw(st.sampled_from(sorted(stats)))] += 1
    state = checkpoint.load(meta, checkpoint.arrays)
    assert state.digest() == checkpoint.digest


def test_in_range_store_node_edit_refused(checkpoint):
    system = checkpoint.meta["systems"][0]
    assert (system["system_id"], system["num_nodes"]) == (2, 2)
    # Move the first event of system 2 to its other node.
    arrays = dict(checkpoint.arrays)
    arrays["s2.k.any.nodes"] = arrays["s2.k.any.nodes"].copy()
    arrays["s2.k.any.nodes"][0] ^= 1
    with pytest.raises(StreamStateError, match="does not match"):
        checkpoint.load(checkpoint.meta, arrays)
