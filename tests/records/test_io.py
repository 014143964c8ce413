"""Round-trip and failure-injection tests for archive I/O."""

import contextlib
import dataclasses
import os
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.records.dataset import Archive, FailureTable
from repro.records.environment import EnvironmentRecordError
from repro.records.failure import RecordError
from repro.records.io import (
    ArchiveIOError,
    load_archive,
    read_failures,
    read_jobs,
    read_layout,
    read_maintenance,
    read_neutrons,
    read_temperatures,
    save_archive,
    write_failures,
)
from repro.records.taxonomy import TaxonomyError
from repro.records.usage import UsageError
from tests.records.record_views import (
    failure_records,
    failure_table_records,
    job_records,
    maintenance_records,
    neutron_records,
    temperature_records,
)


#: Paths opened while :func:`opened_files` is active (audit hooks cannot
#: be removed, so the one hook installed records only inside it).
_OPENED: list[str] | None = None
_HOOKED = False


def _record_open(event: str, args: tuple) -> None:
    if event == "open" and _OPENED is not None and not isinstance(args[0], int):
        _OPENED.append(os.fsdecode(args[0]))


@contextlib.contextmanager
def opened_files():
    """The paths of the files opened inside the block, in order."""
    global _OPENED, _HOOKED
    if not _HOOKED:
        sys.addaudithook(_record_open)
        _HOOKED = True
    _OPENED = opened = []
    try:
        yield opened
    finally:
        _OPENED = None


class TestRoundTrip:
    def test_full_archive_round_trip(self, tiny_archive: Archive, tmp_path: Path):
        save_archive(tiny_archive, tmp_path / "arch")
        loaded = load_archive(tmp_path / "arch")
        assert loaded.system_ids == tiny_archive.system_ids
        for sid in tiny_archive.system_ids:
            orig, back = tiny_archive[sid], loaded[sid]
            assert back.num_nodes == orig.num_nodes
            assert back.group == orig.group
            assert len(back.failure_table) == len(orig.failure_table)
            assert len(back.maintenance) == len(orig.maintenance)
            assert len(back.job_columns) == len(orig.job_columns)
            assert len(back.temperature_columns) == len(orig.temperature_columns)
            assert back.has_layout == orig.has_layout
            assert back.period == orig.period
            if orig.has_layout:
                assert [back.layout.placement(n) for n in back.layout.node_ids] == [
                    orig.layout.placement(n) for n in orig.layout.node_ids
                ]
            # The writer is repr-exact, so every field of every record of
            # every log survives the round trip (astuple, because
            # JobRecord.__eq__ ignores its compare=False fields).
            for records in (
                failure_records, maintenance_records, job_records, temperature_records
            ):
                assert list(map(dataclasses.astuple, records(back))) == list(
                    map(dataclasses.astuple, records(orig))
                ), records.__name__
        assert neutron_records(loaded) == neutron_records(tiny_archive)

    @pytest.mark.parametrize("job_id", [None, "1_000"])
    def test_each_archive_file_is_read_once(
        self, tiny_archive: Archive, tmp_path: Path, job_id
    ):
        """Every table's bytes are read once, also when ``csv.reader``
        tokenises them (``1_000`` is a spelling the C reader refuses)."""
        root = tmp_path / "arch"
        save_archive(tiny_archive, root)
        if job_id is not None:
            jobs = root / "system-8" / "jobs.csv"
            lines = jobs.read_text().splitlines()
            lines[1] = ",".join([job_id, *lines[1].split(",")[1:]])
            jobs.write_text("\n".join(lines) + "\n")
        files = sorted(str(p) for p in root.rglob("*.csv"))
        with opened_files() as opened:
            loaded = load_archive(root)
        counts = Counter(p for p in opened if p.endswith(".csv"))
        assert sorted(counts) == files
        assert set(counts.values()) == {1}
        if job_id is not None:
            assert 1000 in loaded[8].job_columns.job_ids.tolist()

    def test_save_is_deterministic(self, tiny_archive: Archive, tmp_path: Path):
        save_archive(tiny_archive, tmp_path / "a")
        save_archive(tiny_archive, tmp_path / "b")
        sid = tiny_archive.system_ids[0]
        fa = (tmp_path / "a" / f"system-{sid}" / "failures.csv").read_text()
        fb = (tmp_path / "b" / f"system-{sid}" / "failures.csv").read_text()
        assert fa == fb

    def test_jobs_preserved(self, tiny_archive: Archive, tmp_path: Path):
        save_archive(tiny_archive, tmp_path / "arch")
        loaded = load_archive(tmp_path / "arch")
        usage_systems = [ds for ds in tiny_archive if ds.has_usage]
        assert usage_systems, "fixture should include a usage system"
        for ds in usage_systems:
            back = loaded[ds.system_id]
            orig_failed = sum(j.failed_due_to_node for j in job_records(ds))
            back_failed = sum(j.failed_due_to_node for j in job_records(back))
            assert orig_failed == back_failed


class TestMalformedInput:
    def test_missing_directory(self, tmp_path: Path):
        with pytest.raises(ArchiveIOError):
            load_archive(tmp_path / "nope")

    def test_missing_failures_file(self, tiny_archive: Archive, tmp_path: Path):
        root = tmp_path / "arch"
        save_archive(tiny_archive, root)
        sid = tiny_archive.system_ids[0]
        (root / f"system-{sid}" / "failures.csv").unlink()
        with pytest.raises(ArchiveIOError):
            load_archive(root)

    def test_nan_neutron_time(self, tiny_archive: Archive, tmp_path: Path):
        """A NaN neutron time fails the load; it used to reach the
        monthly binning and change the Section IX report."""
        root = tmp_path / "arch"
        save_archive(tiny_archive, root)
        path = root / "neutrons.csv"
        lines = path.read_text().splitlines()
        lines[2] = "nan," + lines[2].split(",")[1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ArchiveIOError, match=f"^{path}:3: non-finite time"):
            load_archive(root)

    def test_truncated_log(self, tiny_archive: Archive, tmp_path: Path):
        """A log cut inside a row fails the load; it used to load the
        rows before the cut."""
        root = tmp_path / "arch"
        save_archive(tiny_archive, root)
        path = root / "system-19" / "failures.csv"
        data = path.read_bytes()
        half = data[: len(data) // 2]
        assert not half.endswith((b"\n", b"\r"))
        path.write_bytes(half)
        with pytest.raises(
            ArchiveIOError, match=f"^{path}: truncated \\(the last row has no line end\\)$"
        ):
            load_archive(root)

    def test_maintenance_outside_period(self, tiny_archive: Archive, tmp_path: Path):
        """A maintenance event after the period ends fails the load, as a
        failure there does; it used to load."""
        root = tmp_path / "arch"
        save_archive(tiny_archive, root)
        with (root / "system-18" / "maintenance.csv").open("a") as handle:
            handle.write("99999.0,0,1,5.0\r\n")
        period = tiny_archive[18].period
        match = (
            f"^inconsistent data for system 18: maintenance at t=99999.0 outside "
            f"observation period \\[{period.start}, {period.end}\\)$"
        )
        with pytest.raises(ArchiveIOError, match=match):
            load_archive(root)

    def test_wrong_header(self, tmp_path: Path):
        p = tmp_path / "failures.csv"
        p.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ArchiveIOError, match="header"):
            read_failures(p, system_id=1)

    def test_bad_number(self, tmp_path: Path):
        p = tmp_path / "failures.csv"
        p.write_text(
            "time,node_id,category,subtype,downtime_hours\n"
            "oops,0,HW,,1.0\n"
        )
        with pytest.raises(ArchiveIOError, match="not a number"):
            read_failures(p, system_id=1)

    def test_bad_category(self, tmp_path: Path):
        p = tmp_path / "failures.csv"
        p.write_text(
            "time,node_id,category,subtype,downtime_hours\n"
            "1.0,0,NOPE,,1.0\n"
        )
        with pytest.raises(Exception):
            read_failures(p, system_id=1)

    def test_short_row(self, tmp_path: Path):
        p = tmp_path / "failures.csv"
        p.write_text(
            "time,node_id,category,subtype,downtime_hours\n"
            "1.0,0\n"
        )
        with pytest.raises(ArchiveIOError, match="short row"):
            read_failures(p, system_id=1)

    @pytest.mark.parametrize(
        "sid, log, field, node", [(8, "jobs", 6, 99999), (20, "temperatures", 1, 88888)]
    )
    def test_log_node_out_of_range(
        self, tiny_archive: Archive, tmp_path: Path, sid, log, field, node
    ):
        root = tmp_path / "arch"
        save_archive(tiny_archive, root)
        path = root / f"system-{sid}" / f"{log}.csv"
        lines = path.read_text().splitlines()
        row = lines[1].split(",")
        row[field] = str(node)
        lines[1] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        match = (
            f"^inconsistent data for system {sid}: {log} log references node "
            f"{node} but system {sid} has only {tiny_archive[sid].num_nodes} nodes$"
        )
        with pytest.raises(ArchiveIOError, match=match):
            load_archive(root)

    def test_corrupt_systems_csv(self, tiny_archive: Archive, tmp_path: Path):
        root = tmp_path / "arch"
        save_archive(tiny_archive, root)
        systems = root / "systems.csv"
        content = systems.read_text().replace("group-1", "group-9")
        systems.write_text(content)
        with pytest.raises(ArchiveIOError, match="group"):
            load_archive(root)


class TestSystemsTable:
    """``systems.csv`` faults are archive errors naming the file."""

    def _edit(self, tiny_archive: Archive, tmp_path: Path, edit) -> Path:
        root = tmp_path / "arch"
        save_archive(tiny_archive, root)
        systems = root / "systems.csv"
        systems.write_text("\n".join(edit(systems.read_text().splitlines())) + "\n")
        return root

    def test_duplicate_row(self, tiny_archive: Archive, tmp_path: Path):
        root = self._edit(tiny_archive, tmp_path, lambda ls: [*ls[:3], ls[2], *ls[3:]])
        sid = tiny_archive.system_ids[1]
        with pytest.raises(
            ArchiveIOError,
            match=f"^{root / 'systems.csv'}:4: duplicate system id {sid}$",
        ):
            load_archive(root)

    def test_header_only(self, tiny_archive: Archive, tmp_path: Path):
        root = self._edit(tiny_archive, tmp_path, lambda ls: ls[:1])
        with pytest.raises(
            ArchiveIOError,
            match=f"^{root / 'systems.csv'}: an archive must contain at least one system$",
        ):
            load_archive(root)


GOOD_ROWS = {
    "failures": (
        read_failures,
        "time,node_id,category,subtype,downtime_hours",
        "1.0,0,HW,,1.0",
    ),
    "maintenance": (
        read_maintenance,
        "time,node_id,hardware_related,duration_hours",
        "1.0,0,1,2.0",
    ),
    "jobs": (
        read_jobs,
        "job_id,submit_time,dispatch_time,end_time,user_id,num_processors,"
        "node_ids,failed_due_to_node",
        "0,1.0,1.0,2.0,0,4,0;1,0",
    ),
    "temperatures": (read_temperatures, "time,node_id,celsius", "1.0,0,25.0"),
    "layout": (
        read_layout,
        "node_id,rack_id,position_in_rack,room_x,room_y",
        "0,0,1,0,0",
    ),
    "neutrons": (read_neutrons, "time,counts_per_minute", "1.0,4000.0"),
}


def _read(kind: str, path: Path):
    reader = GOOD_ROWS[kind][0]
    if kind == "layout":
        return reader(path).node_ids
    if kind == "neutrons":
        return reader(path)
    return reader(path, 1)


class TestRowShape:
    @pytest.mark.parametrize("kind", sorted(GOOD_ROWS))
    def test_long_row(self, kind, tmp_path: Path):
        _, header, row = GOOD_ROWS[kind]
        p = tmp_path / f"{kind}.csv"
        p.write_text(f"{header}\n{row}\n\n{row},7\n")
        with pytest.raises(ArchiveIOError, match=f"^{p}:3: long row$"):
            _read(kind, p)

    @pytest.mark.parametrize("kind", sorted(GOOD_ROWS))
    def test_short_row(self, kind, tmp_path: Path):
        _, header, row = GOOD_ROWS[kind]
        p = tmp_path / f"{kind}.csv"
        p.write_text(f"{header}\n{row}\n{row.rsplit(',', 1)[0]}\n")
        with pytest.raises(ArchiveIOError, match=f"^{p}:3: short row$"):
            _read(kind, p)

    @pytest.mark.parametrize("kind", sorted(GOOD_ROWS))
    def test_good_rows_with_blank_lines(self, kind, tmp_path: Path):
        _, header, row = GOOD_ROWS[kind]
        p = tmp_path / f"{kind}.csv"
        p.write_text(f"{header}\n\n{row}\n\n")
        assert len(_read(kind, p)) == 1

    def test_long_systems_row(self, tiny_archive: Archive, tmp_path: Path):
        root = tmp_path / "arch"
        save_archive(tiny_archive, root)
        systems = root / "systems.csv"
        lines = systems.read_text().splitlines()
        lines[1] += ",extra"
        systems.write_text("\n".join(lines) + "\n")
        with pytest.raises(ArchiveIOError, match="systems.csv:2: long row"):
            load_archive(root)


class TestRowErrors:
    """A record invariant broken by a CSV row is an ArchiveIOError that
    names the file and row, with the record's error as its cause."""

    def _raises(self, kind: str, row: str, tmp_path: Path, cause: type):
        _, header, good = GOOD_ROWS[kind]
        p = tmp_path / f"{kind}.csv"
        p.write_text(f"{header}\n{good}\n{row}\n")
        with pytest.raises(ArchiveIOError, match=f"^{p}:3: ") as info:
            _read(kind, p)
        assert type(info.value.__cause__) is cause
        assert str(info.value) == f"{p}:3: {info.value.__cause__}"

    def test_job_row(self, tmp_path: Path):
        self._raises("jobs", "0,2.0,1.0,3.0,0,4,0,0", tmp_path, UsageError)

    def test_temperature_row(self, tmp_path: Path):
        self._raises("temperatures", "1.0,0,900.0", tmp_path, EnvironmentRecordError)

    def test_failure_row(self, tmp_path: Path):
        self._raises("failures", "-1.0,0,HW,,1.0", tmp_path, RecordError)

    def test_failure_category(self, tmp_path: Path):
        self._raises("failures", "1.0,0,NOPE,,1.0", tmp_path, TaxonomyError)

    def test_maintenance_row(self, tmp_path: Path):
        self._raises("maintenance", "1.0,0,1,-2.0", tmp_path, RecordError)

    def test_failure_time_not_finite(self, tmp_path: Path):
        self._raises("failures", "inf,0,HW,,1.0", tmp_path, RecordError)

    def test_failure_downtime_not_finite(self, tmp_path: Path):
        self._raises("failures", "1.0,0,HW,,inf", tmp_path, RecordError)

    def test_maintenance_time_not_finite(self, tmp_path: Path):
        self._raises("maintenance", "nan,0,1,2.0", tmp_path, RecordError)

    def test_maintenance_duration_not_finite(self, tmp_path: Path):
        self._raises("maintenance", "1.0,0,1,nan", tmp_path, RecordError)

    def test_neutron_row(self, tmp_path: Path):
        self._raises("neutrons", "1.0,-5.0", tmp_path, EnvironmentRecordError)

    def test_neutron_time_not_finite(self, tmp_path: Path):
        self._raises("neutrons", "nan,5.0", tmp_path, EnvironmentRecordError)


class TestWriters:
    def test_write_failures_sorted(self, tiny_archive: Archive, tmp_path: Path):
        ds = tiny_archive[list(tiny_archive.system_ids)[0]]
        p = tmp_path / "f.csv"
        records = failure_records(ds)
        write_failures(p, FailureTable.from_records(list(reversed(records))))
        back = read_failures(p, ds.system_id)
        times = back.times.tolist()
        assert times == sorted(times)
        assert failure_table_records(back, ds.system_id) == records
