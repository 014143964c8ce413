"""Tests for end-to-end archive generation."""

import hashlib
from pathlib import Path

import pytest

from repro.records.dataset import HardwareGroup
from repro.records.io import save_archive
from repro.records.taxonomy import Category
from repro.records.validation import validate_archive
from repro.simulate.archive import quick_archive
from tests.records.record_views import failure_records

#: sha256 of the CSV tree ``save_archive(quick_archive(seed))`` writes
#: (see :func:`tree_digest`).  A change here means the generator's
#: output changed: that needs a ``GENERATOR_VERSION`` bump, new digests
#: and a note on why.
PINNED_TREES = {
    7: "de5635b6e99c7256c7b3731afb802041dd74e634bdff82bec3f8140b315779b7",
    46: "dbdad75872db24645bb98b558b90eaa7b1a2d834a9082fdd9762685b306c4e68",
    97: "651372242bb3dbea7f9eac54acd671e1ad0d4e98bc8425dfcbd5050bca85abf2",
}


def tree_digest(root: Path) -> str:
    """sha256 over every file under ``root``, in path order: each file's
    relative path, a NUL byte, then its bytes."""
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(root).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


class TestMakeArchive:
    def test_structure(self, tiny_archive):
        assert set(tiny_archive.system_ids) == {2, 3, 4, 5, 6, 8, 16, 18, 19, 20, 23}
        assert tiny_archive.neutron_series
        ds20 = tiny_archive[20]
        assert ds20.has_usage and ds20.has_temperature and ds20.has_layout
        ds2 = tiny_archive[2]
        assert ds2.group is HardwareGroup.GROUP2
        assert not ds2.has_layout

    def test_validates_clean(self, tiny_archive):
        assert validate_archive(tiny_archive).ok

    def test_reproducible(self):
        a = quick_archive(seed=11, years=1.0, scale=0.02)
        b = quick_archive(seed=11, years=1.0, scale=0.02)
        for sid in a.system_ids:
            fails_a, fails_b = failure_records(a[sid]), failure_records(b[sid])
            assert len(fails_a) == len(fails_b)
            for fa, fb in zip(fails_a[:20], fails_b[:20]):
                assert fa == fb and fa.category == fb.category

    @pytest.mark.parametrize("seed", sorted(PINNED_TREES))
    def test_saved_bytes_pinned(self, seed, tmp_path):
        save_archive(quick_archive(seed), tmp_path)
        assert tree_digest(tmp_path) == PINNED_TREES[seed]

    def test_seed_changes_output(self):
        a = quick_archive(seed=1, years=1.0, scale=0.02)
        b = quick_archive(seed=2, years=1.0, scale=0.02)
        assert a.total_failures() != b.total_failures()

    def test_every_system_has_failures(self, tiny_archive):
        for ds in tiny_archive:
            assert len(ds.failure_table) > 0

    def test_failures_inside_period(self, tiny_archive):
        for ds in tiny_archive:
            for t in ds.failure_table.times.tolist():
                assert ds.period.contains(t)

    def test_hardware_share_roughly_sixty_percent(self, medium_archive):
        # Paper: "60% of all failures are attributed to hardware problems"
        g1 = medium_archive.group(HardwareGroup.GROUP1)
        total = sum(len(ds.failure_table) for ds in g1)
        hw = sum(
            int(ds.failure_table.mask(category=Category.HARDWARE).sum())
            for ds in g1
        )
        assert 0.40 < hw / total < 0.75

    def test_group2_rates_higher_than_group1(self, medium_archive):
        def daily_rate(group):
            systems = medium_archive.group(group)
            failures = sum(len(ds.failure_table) for ds in systems)
            node_days = sum(ds.num_nodes * ds.period.length for ds in systems)
            return failures / node_days

        assert daily_rate(HardwareGroup.GROUP2) > 3 * daily_rate(
            HardwareGroup.GROUP1
        )

    def test_job_failures_marked(self, medium_archive):
        ds = medium_archive[20]
        failed = int(ds.job_columns.failed_due_to_node.sum())
        assert failed
        assert failed < len(ds.job_columns) * 0.5

    def test_maintenance_present(self, tiny_archive):
        assert any(ds.maintenance for ds in tiny_archive)
