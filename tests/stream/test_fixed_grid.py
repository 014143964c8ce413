"""The stream's one grid: pinned checkpoint bytes, digests and verifier output.

The stream tracks the paper's fixed grid (``SELECTIONS`` x ``SPANS`` at
NODE, RACK and SYSTEM scope), and checkpoint format 1 records it in
every ``meta.json``.  These tests pin what a replay of the tiny archive
writes and what the replay-vs-batch verifier reports on it, restore a
format-1 checkpoint kept in ``tests/stream/data``, and refuse a
checkpoint that records any other grid.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.core.windows import Scope
from repro.records.taxonomy import all_categories
from repro.records.timeutil import ObservationPeriod
from repro.stream import (
    OnlineAnalysis,
    StreamAnalysisState,
    StreamEvent,
    StreamStateError,
    load_checkpoint,
    replay_archive,
    verify_equivalence,
    write_checkpoint,
)
from repro.stream.state import _N_CODES, _N_SPANS, SELECTIONS

#: A format-1 checkpoint of :func:`_small_state`, kept as written.
FORMAT1 = Path(__file__).parent / "data" / "format1-checkpoint"
FORMAT1_DIGEST = "1d91bd2b0eef3aa0843e075dfc84c97131f37f7f0f842b1b36bae53c19667f5a"

#: The tiny archive replayed at lateness 2.0 in batches of 128.
REPLAY_DIGEST = "25215f8ec04cc2bb15f18ea02c050c86e270f70dde8c33d16323fc4e95c39f95"
REPLAY_FILES = {
    "ckpt-000001.meta.json": (
        "e1beda5719bebf04786a9981763451720babb680b18dff6fc0f3b5d0c5f1268f"
    ),
    "ckpt-000001.state.npz": (
        "fb9f42f7ef671620fd4cf754e94a81d668f805c0797ad9c13b99b61b5f721beb"
    ),
}
REPLAY_CELLS = 2247


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _small_state() -> StreamAnalysisState:
    """Two systems (one with a rack layout), 30 events over every
    selection, left unfinalised so the resolution pointers sit mid-way."""
    state = StreamAnalysisState(lateness_days=2.0)
    period = ObservationPeriod(0.0, 60.0)
    state.register_system(0, 4, period, np.array([0, 0, 1, 1]))
    state.register_system(5, 3, period, None)
    events = [
        StreamEvent(
            time=i * 1.75 - (i % 3) * 0.5,
            system_id=(0, 5)[i % 2],
            node_id=i % 3,
            event_id=f"e{i}",
            category=SELECTIONS[i % len(SELECTIONS)],
        )
        for i in range(30)
    ]
    for lo in range(0, 30, 8):
        state.ingest(events[lo : lo + 8])
    return state


@pytest.fixture(scope="module")
def replayed(tiny_archive):
    consumer = OnlineAnalysis(StreamAnalysisState(lateness_days=2.0))
    replay_archive(tiny_archive, consumer, batch_size=128)
    return consumer.state


class TestPinnedReplay:
    def test_digest_and_checkpoint_bytes(self, replayed, tmp_path):
        assert replayed.digest() == REPLAY_DIGEST
        write_checkpoint(replayed, tmp_path)
        for name, digest in REPLAY_FILES.items():
            assert _sha256(tmp_path / name) == digest, name
        assert load_checkpoint(tmp_path, 2.0).digest() == REPLAY_DIGEST

    def test_verifier_cell_count(self, tiny_archive, replayed):
        report = verify_equivalence(tiny_archive, replayed)
        assert report.ok, report.render()
        assert report.cells == REPLAY_CELLS

    def test_one_node_cell_edit_is_one_mismatch(self, tiny_archive, replayed):
        cells = replayed.systems[3].conditional_cells(Scope.NODE)
        cells[2, 3, 1, 0] += 1  # HW -> HUMAN at week
        try:
            report = verify_equivalence(tiny_archive, replayed)
        finally:
            cells[2, 3, 1, 0] -= 1
        assert report.cells == REPLAY_CELLS
        assert report.mismatches == [
            "system 3 node HW->HUMAN @week: batch 0/22 != stream 1/22"
        ]

    def test_one_extra_baseline_key_is_one_mismatch(self, tiny_archive, replayed):
        # The first key of system 3's (any, day) cell: node 0, day tile 0.
        keys = replayed._base_keys
        key = replayed._base_bounds[replayed.systems[3].index * _N_CODES * _N_SPANS]
        at = np.searchsorted(keys, key)
        assert keys[at] != key
        replayed._base_keys = np.insert(keys, at, key)
        try:
            report = verify_equivalence(tiny_archive, replayed)
        finally:
            replayed._base_keys = keys
        assert report.mismatches == [
            "system 3 baseline any @day: batch 134/2920 != stream 135/2920"
        ]


class TestFormat1Checkpoint:
    def test_kept_checkpoint_restores(self, tmp_path):
        restored = load_checkpoint(FORMAT1)
        assert restored.digest() == FORMAT1_DIGEST
        assert _small_state().digest() == FORMAT1_DIGEST
        # Rewritten, it is the same bytes.
        write_checkpoint(restored, tmp_path)
        for path in FORMAT1.iterdir():
            assert (tmp_path / path.name).read_bytes() == path.read_bytes()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda config: config["spans"].remove("month"),
            lambda config: config["selections"].pop(),
            lambda config: config["selections"].reverse(),
            lambda config: config["wide_targets"].append("HW"),
            lambda config: config.update(extra=1),
        ],
        ids=["spans", "selections", "selection-order", "wide-targets", "extra-key"],
    )
    def test_other_grid_refused(self, tmp_path, edit):
        directory = tmp_path / "ckpt"
        shutil.copytree(FORMAT1, directory)
        meta = directory / "ckpt-000001.meta.json"
        payload = json.loads(meta.read_text())
        edit(payload["config"])
        meta.write_text(json.dumps(payload, sort_keys=True))
        with pytest.raises(StreamStateError, match="different stream configuration"):
            load_checkpoint(directory)

    def test_other_lateness_refused(self):
        assert load_checkpoint(FORMAT1, 2.0).lateness_days == 2.0
        with pytest.raises(StreamStateError, match="different stream configuration"):
            load_checkpoint(FORMAT1, 0.0)

    def test_config_block_names_the_grid(self):
        payload = json.loads((FORMAT1 / "ckpt-000001.meta.json").read_text())
        assert payload["config"] == {
            "lateness_days": (2.0).hex(),
            "spans": ["day", "week", "month"],
            "selections": ["any", *(c.value for c in all_categories())],
            "wide_targets": ["any"],
        }
