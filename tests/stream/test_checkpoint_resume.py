"""Checkpoint/restore bit-identity after a mid-stream kill.

The second acceptance property of the streaming subsystem: kill a
consumer mid-stream, restore from its last checkpoint, replay the full
source (relying on late-drop + dedup to skip what was already applied),
and the final state is *bit-identical* -- equal sha256 digest over the
canonical serialisation -- to a run that was never interrupted.
"""

from __future__ import annotations

import pytest

from repro.stream import (
    Checkpointer,
    OnlineAnalysis,
    StreamAnalysisState,
    latest_checkpoint_sequence,
    load_checkpoint,
    replay_archive,
    verify_equivalence,
)


@pytest.fixture(scope="module")
def lateness():
    return 2.0


@pytest.fixture(scope="module")
def reference_digest(tiny_archive, lateness):
    consumer = OnlineAnalysis(StreamAnalysisState(lateness))
    replay_archive(tiny_archive, consumer, batch_size=128)
    return consumer.state.digest()


class TestKillAndResume:
    @pytest.mark.parametrize("kill_after", [1, 137, 500, 1265])
    def test_resume_reproduces_uninterrupted_state(
        self, tiny_archive, lateness, reference_digest, tmp_path, kill_after
    ):
        # Phase 1: process `kill_after` events, checkpoint, "crash".
        victim = OnlineAnalysis(StreamAnalysisState(lateness))
        replay_archive(
            tiny_archive,
            victim,
            batch_size=128,
            max_events=kill_after,
            finalize=False,
        )
        from repro.stream import write_checkpoint

        write_checkpoint(victim.state, tmp_path)
        del victim

        # Phase 2: restore and replay the FULL source from the start.
        restored = load_checkpoint(tmp_path, lateness)
        survivor = OnlineAnalysis(restored)
        replay_archive(tiny_archive, survivor, batch_size=128)
        assert survivor.state.digest() == reference_digest
        report = verify_equivalence(tiny_archive, survivor.state)
        assert report.ok, report.render()

    def test_restore_matches_checkpointed_state_exactly(
        self, tiny_archive, lateness, tmp_path
    ):
        consumer = OnlineAnalysis(StreamAnalysisState(lateness))
        replay_archive(
            tiny_archive, consumer, max_events=300, finalize=False
        )
        from repro.stream import write_checkpoint

        write_checkpoint(consumer.state, tmp_path)
        restored = load_checkpoint(tmp_path, lateness)
        assert restored.digest() == consumer.state.digest()

    def test_periodic_checkpointer_writes_during_replay(
        self, tiny_archive, lateness, tmp_path
    ):
        checkpointer = Checkpointer(tmp_path, every=200)
        consumer = OnlineAnalysis(
            StreamAnalysisState(lateness), checkpointer=checkpointer
        )
        replay_archive(tiny_archive, consumer, batch_size=64)
        sequence = latest_checkpoint_sequence(tmp_path)
        assert sequence is not None and sequence >= 3

    def test_resume_from_periodic_checkpoint_mid_kill(
        self, tiny_archive, lateness, reference_digest, tmp_path
    ):
        # Kill WITHOUT an explicit final checkpoint: resume from the
        # last periodic one, which is older than the kill point.
        checkpointer = Checkpointer(tmp_path, every=150)
        victim = OnlineAnalysis(
            StreamAnalysisState(lateness), checkpointer=checkpointer
        )
        replay_archive(
            tiny_archive,
            victim,
            batch_size=64,
            max_events=700,
            finalize=False,
        )
        assert latest_checkpoint_sequence(tmp_path) is not None
        restored = load_checkpoint(tmp_path, lateness)
        survivor = OnlineAnalysis(restored)
        replay_archive(tiny_archive, survivor, batch_size=64)
        assert survivor.state.digest() == reference_digest

    def test_double_restore_is_stable(self, tiny_archive, lateness, tmp_path):
        consumer = OnlineAnalysis(StreamAnalysisState(lateness))
        replay_archive(
            tiny_archive, consumer, max_events=400, finalize=False
        )
        from repro.stream import write_checkpoint

        write_checkpoint(consumer.state, tmp_path)
        first = load_checkpoint(tmp_path, lateness)
        second = load_checkpoint(tmp_path, lateness)
        assert first.digest() == second.digest()
