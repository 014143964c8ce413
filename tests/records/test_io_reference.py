"""Reference-reader tests for the C-parsed CSV loader.

``read_jobs`` / ``read_temperatures`` parse a whole file column-wise with
numpy's C reader and check and sort the columns with numpy;
``read_failures`` builds its records from C-parsed columns.  This module
keeps per-row readers -- ``csv.DictReader``, one record per row, records
sorted with ``sorted()`` the way :class:`SystemDataset` sorts them -- as
the oracle, and checks the loader against it on random tables
(hypothesis): same columns, same materialised records, and on a bad
table the same error type and message.  The spelling tests write the
numbers the way people and other tools do (padding, quotes, underscores,
other notations, other digits, other line ends), where the C reader and
``float()``/``int()`` could part ways.
"""

from __future__ import annotations

import csv
import dataclasses
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.records.dataset import SystemDataset
from repro.records.environment import (
    EnvironmentRecordError,
    TemperatureColumns,
    TemperatureReading,
)
from repro.records.failure import FailureRecord, RecordError
from repro.records.io import (
    ArchiveIOError,
    load_archive,
    read_failures,
    read_jobs,
    read_temperatures,
    save_archive,
    write_jobs,
    write_temperatures,
)
from repro.records.taxonomy import TaxonomyError, parse_category, parse_subtype
from repro.records.usage import JobColumns, JobRecord, UsageError

SYSTEM_ID = 20
NUM_NODES = 64

JOBS_HEADER = [
    "job_id",
    "submit_time",
    "dispatch_time",
    "end_time",
    "user_id",
    "num_processors",
    "node_ids",
    "failed_due_to_node",
]
TEMPERATURES_HEADER = ["time", "node_id", "celsius"]
FAILURES_HEADER = ["time", "node_id", "category", "subtype", "downtime_hours"]


# --- the oracle: per-row readers ------------------------------------------


def reference_rows(path: Path, header: list[str]) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != header:
            raise ArchiveIOError(
                f"{path}: expected header {header}, got {reader.fieldnames}"
            )
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if any(v is None for v in row.values()):
                raise ArchiveIOError(f"{path}:{lineno}: short row")
            if None in row:
                raise ArchiveIOError(f"{path}:{lineno}: long row")
            rows.append(row)
        return rows


def _float(path, i, field, value):
    try:
        return float(value)
    except ValueError as exc:
        raise ArchiveIOError(
            f"{path}:{i}: field {field!r} is not a number: {value!r}"
        ) from exc


def _int(path, i, field, value):
    try:
        return int(value)
    except ValueError as exc:
        raise ArchiveIOError(
            f"{path}:{i}: field {field!r} is not an integer: {value!r}"
        ) from exc


def _bool(path, i, field, value):
    if value in ("0", "1"):
        return value == "1"
    raise ArchiveIOError(
        f"{path}:{i}: field {field!r} must be 0 or 1, got {value!r}"
    )


def _int64(path, i, row, fields):
    # The loader's columns are int64; an integer beyond them is rejected.
    for field in fields:
        for tok in row[field].split(";"):
            if not -(2**63) <= int(tok) < 2**63:
                raise ArchiveIOError(
                    f"{path}:{i}: field {field!r} is out of the 64-bit range: "
                    f"{row[field]!r}"
                )


def reference_read_jobs(path: Path, system_id: int) -> list[JobRecord]:
    out = []
    for i, row in enumerate(reference_rows(path, JOBS_HEADER), start=2):
        raw_nodes = row["node_ids"]
        if not raw_nodes:
            raise ArchiveIOError(f"{path}:{i}: empty node_ids")
        node_ids = tuple(
            _int(path, i, "node_ids", tok) for tok in raw_nodes.split(";")
        )
        try:
            out.append(
                JobRecord(
                    submit_time=_float(path, i, "submit_time", row["submit_time"]),
                    system_id=system_id,
                    job_id=_int(path, i, "job_id", row["job_id"]),
                    dispatch_time=_float(
                        path, i, "dispatch_time", row["dispatch_time"]
                    ),
                    end_time=_float(path, i, "end_time", row["end_time"]),
                    user_id=_int(path, i, "user_id", row["user_id"]),
                    num_processors=_int(
                        path, i, "num_processors", row["num_processors"]
                    ),
                    node_ids=node_ids,
                    failed_due_to_node=_bool(
                        path, i, "failed_due_to_node", row["failed_due_to_node"]
                    ),
                )
            )
        except UsageError as exc:
            raise ArchiveIOError(f"{path}:{i}: {exc}") from exc
        _int64(path, i, row, ("job_id", "user_id", "num_processors", "node_ids"))
    return out


def reference_read_temperatures(
    path: Path, system_id: int
) -> list[TemperatureReading]:
    out = []
    for i, row in enumerate(reference_rows(path, TEMPERATURES_HEADER), start=2):
        try:
            out.append(
                TemperatureReading(
                    time=_float(path, i, "time", row["time"]),
                    system_id=system_id,
                    node_id=_int(path, i, "node_id", row["node_id"]),
                    celsius=_float(path, i, "celsius", row["celsius"]),
                )
            )
        except EnvironmentRecordError as exc:
            raise ArchiveIOError(f"{path}:{i}: {exc}") from exc
        _int64(path, i, row, ("node_id",))
    return out


def reference_read_failures(path: Path, system_id: int) -> list[FailureRecord]:
    out = []
    for i, row in enumerate(reference_rows(path, FAILURES_HEADER), start=2):
        try:
            subtype = parse_subtype(row["subtype"]) if row["subtype"] else None
            out.append(
                FailureRecord(
                    time=_float(path, i, "time", row["time"]),
                    system_id=system_id,
                    node_id=_int(path, i, "node_id", row["node_id"]),
                    category=parse_category(row["category"]),
                    subtype=subtype,
                    downtime_hours=_float(
                        path, i, "downtime_hours", row["downtime_hours"]
                    ),
                )
            )
        except (RecordError, TaxonomyError) as exc:
            raise ArchiveIOError(f"{path}:{i}: {exc}") from exc
    return out


# --- comparison helpers ---------------------------------------------------


def assert_columns_equal(got, expected) -> None:
    assert type(got) is type(expected)
    for f in dataclasses.fields(expected):
        a, b = getattr(got, f.name), getattr(expected, f.name)
        assert a.dtype == b.dtype, f.name
        assert np.array_equal(a, b), f.name


def as_tuples(records) -> list[tuple]:
    # JobRecord.__eq__ skips its compare=False fields; astuple does not.
    return [dataclasses.astuple(r) for r in records]


def assert_same_error(oracle, loader, path: Path) -> None:
    with pytest.raises(ArchiveIOError) as expected:
        oracle(path, SYSTEM_ID)
    with pytest.raises(ArchiveIOError) as got:
        loader(path, SYSTEM_ID)
    assert str(got.value) == str(expected.value)
    assert type(got.value.__cause__) is type(expected.value.__cause__)


# --- random tables --------------------------------------------------------

# Few distinct values, so ties on every sort key are common.
times = st.sampled_from([0.0, 0.5, 1.0, 1.25, 2.0, 1e-9, 7.3, 30.0])
gaps = st.sampled_from([0.0, 0.1, 0.5, 3.0])


@st.composite
def job_rows(draw) -> list[str]:
    submit = draw(times)
    dispatch = submit + draw(gaps)
    end = dispatch + draw(gaps)
    nodes = draw(
        st.lists(
            st.integers(0, NUM_NODES - 1), min_size=1, max_size=4, unique=True
        )
    )
    return [
        str(draw(st.integers(0, 5))),
        repr(submit),
        repr(dispatch),
        repr(end),
        str(draw(st.integers(0, 3))),
        str(draw(st.integers(1, 16))),
        ";".join(map(str, nodes)),
        draw(st.sampled_from(["0", "1"])),
    ]


@st.composite
def temperature_rows(draw) -> list[str]:
    return [
        repr(draw(times)),
        str(draw(st.integers(0, NUM_NODES - 1))),
        repr(draw(st.sampled_from([-50.0, 21.5, 25.0, 40.0, 40.5, 150.0]))),
    ]


@st.composite
def csv_text(draw, header: list[str], rows: list[list[str]]) -> str:
    """``rows`` as CSV text in the given order, with random blank lines
    and random quoting of fields."""
    lines = [",".join(header)]
    for row in rows:
        while draw(st.integers(0, 4)) == 0:
            lines.append("")
        fields = [f'"{f}"' if draw(st.booleans()) else f for f in row]
        lines.append(",".join(fields))
    if draw(st.booleans()):
        lines.append("")
    return "\n".join(lines) + "\n"


def write_archive(root: Path, jobs_text: str, temps_text: str) -> Path:
    """A one-system archive around the given job and temperature files."""
    sysdir = root / f"system-{SYSTEM_ID}"
    sysdir.mkdir(parents=True)
    (root / "systems.csv").write_text(
        "system_id,group,num_nodes,processors_per_node,period_start,period_end\n"
        f"{SYSTEM_ID},group-1,{NUM_NODES},4,0.0,400.0\n"
    )
    (sysdir / "failures.csv").write_text(
        "time,node_id,category,subtype,downtime_hours\n"
    )
    (sysdir / "maintenance.csv").write_text(
        "time,node_id,hardware_related,duration_hours\n"
    )
    (sysdir / "jobs.csv").write_text(jobs_text)
    (sysdir / "temperatures.csv").write_text(temps_text)
    return root


def fresh_dir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("arch")


# --- equivalence ----------------------------------------------------------


class TestLoaderMatchesOracle:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_hand_written_tables(self, tmp_path_factory, data):
        jobs = data.draw(st.lists(job_rows(), max_size=25))
        temps = data.draw(st.lists(temperature_rows(), max_size=25))
        root = write_archive(
            fresh_dir(tmp_path_factory),
            data.draw(csv_text(JOBS_HEADER, jobs)),
            data.draw(csv_text(TEMPERATURES_HEADER, temps)),
        )
        sysdir = root / f"system-{SYSTEM_ID}"
        job_oracle = sorted(reference_read_jobs(sysdir / "jobs.csv", SYSTEM_ID))
        temp_oracle = sorted(
            reference_read_temperatures(sysdir / "temperatures.csv", SYSTEM_ID)
        )
        job_expected = JobColumns.from_records(job_oracle)
        temp_expected = TemperatureColumns.from_records(temp_oracle)

        assert_columns_equal(read_jobs(sysdir / "jobs.csv", SYSTEM_ID), job_expected)
        assert_columns_equal(
            read_temperatures(sysdir / "temperatures.csv", SYSTEM_ID),
            temp_expected,
        )
        ds = load_archive(root)[SYSTEM_ID]
        assert ds.has_usage == bool(job_oracle)
        assert ds.has_temperature == bool(temp_oracle)
        assert_columns_equal(ds.job_columns(), job_expected)
        assert_columns_equal(ds.temperature_columns(), temp_expected)
        assert as_tuples(ds.jobs) == as_tuples(job_oracle)
        assert as_tuples(ds.temperatures) == as_tuples(temp_oracle)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_written_tables(self, tmp_path_factory, data):
        """Tables the writer produced: sorted, repr-exact."""
        jobs = data.draw(st.lists(job_rows(), max_size=25))
        temps = data.draw(st.lists(temperature_rows(), max_size=25))
        scratch = write_archive(
            fresh_dir(tmp_path_factory),
            "\n".join(map(",".join, [JOBS_HEADER, *jobs])) + "\n",
            "\n".join(map(",".join, [TEMPERATURES_HEADER, *temps])) + "\n",
        ) / f"system-{SYSTEM_ID}"
        job_records = reference_read_jobs(scratch / "jobs.csv", SYSTEM_ID)
        temp_records = reference_read_temperatures(
            scratch / "temperatures.csv", SYSTEM_ID
        )
        root = fresh_dir(tmp_path_factory)
        write_archive(root, "", "")
        sysdir = root / f"system-{SYSTEM_ID}"
        write_jobs(sysdir / "jobs.csv", job_records)
        write_temperatures(sysdir / "temperatures.csv", temp_records)

        ds = load_archive(root)[SYSTEM_ID]
        assert as_tuples(ds.jobs) == as_tuples(sorted(job_records))
        assert as_tuples(ds.temperatures) == as_tuples(sorted(temp_records))
        assert_columns_equal(
            ds.job_columns(), JobColumns.from_records(sorted(job_records))
        )
        assert_columns_equal(
            ds.temperature_columns(),
            TemperatureColumns.from_records(sorted(temp_records)),
        )

    def test_ties_keep_file_order(self, tmp_path):
        """Jobs tied on (submit_time, job_id) keep their file order, as
        the stable sorted() does; a tie on submit_time sorts by job_id."""
        rows = [
            ["3", "1.0", "1.0", "2.0", "0", "4", "5", "0"],
            ["1", "1.0", "1.5", "2.0", "0", "4", "6;7", "1"],
            ["1", "1.0", "1.0", "3.0", "1", "8", "8", "0"],
            ["0", "0.5", "0.5", "0.5", "2", "4", "9;1;3", "0"],
        ]
        path = tmp_path / "jobs.csv"
        path.write_text("\n".join(map(",".join, [JOBS_HEADER, *rows])) + "\n")
        got = read_jobs(path, SYSTEM_ID)
        assert got.job_ids.tolist() == [0, 1, 1, 3]
        assert got.dispatch_times.tolist() == [0.5, 1.5, 1.0, 1.0]
        assert got.node_offsets.tolist() == [0, 3, 5, 6, 7]
        assert got.node_ids.tolist() == [9, 1, 3, 6, 7, 8, 5]
        assert_columns_equal(
            got,
            JobColumns.from_records(sorted(reference_read_jobs(path, SYSTEM_ID))),
        )

    def test_empty_logs(self, tmp_path):
        root = write_archive(
            tmp_path / "arch",
            ",".join(JOBS_HEADER) + "\n",
            ",".join(TEMPERATURES_HEADER) + "\n\n",
        )
        ds = load_archive(root)[SYSTEM_ID]
        assert not ds.has_usage and not ds.has_temperature
        assert ds.jobs == () and ds.temperatures == ()
        assert_columns_equal(ds.job_columns(), JobColumns.from_records(()))
        assert_columns_equal(
            ds.temperature_columns(), TemperatureColumns.from_records(())
        )

    def test_loaded_dataset_equals_record_dataset(self, tmp_path):
        """Loading builds what SystemDataset builds from the records."""
        root = write_archive(
            tmp_path / "arch",
            "\n".join(
                map(
                    ",".join,
                    [
                        JOBS_HEADER,
                        ["2", "3.0", "4.0", "5.0", "1", "4", "3;1", "1"],
                        ["1", "3.0", "3.5", "9.0", "0", "8", "2", "0"],
                    ],
                )
            )
            + "\n",
            "time,node_id,celsius\n2.0,1,30.5\n1.0,3,22.0\n1.0,2,21.0\n",
        )
        ds = load_archive(root)[SYSTEM_ID]
        sysdir = root / f"system-{SYSTEM_ID}"
        plain = SystemDataset(
            system_id=ds.system_id,
            group=ds.group,
            num_nodes=ds.num_nodes,
            processors_per_node=ds.processors_per_node,
            period=ds.period,
            jobs=tuple(reference_read_jobs(sysdir / "jobs.csv", SYSTEM_ID)),
            temperatures=tuple(
                reference_read_temperatures(sysdir / "temperatures.csv", SYSTEM_ID)
            ),
        )
        for f in dataclasses.fields(SystemDataset):
            assert getattr(ds, f.name) == getattr(plain, f.name), f.name
        assert as_tuples(ds.jobs) == as_tuples(plain.jobs)
        assert_columns_equal(ds.job_columns(), plain.job_columns())
        assert_columns_equal(ds.temperature_columns(), plain.temperature_columns())


# --- fault injection ------------------------------------------------------


def _set(field: int, value: str):
    def apply(row: list[str]) -> list[str]:
        row = list(row)
        if field < len(row):  # a short-row fault may have cut it off
            row[field] = value
        return row

    return apply


JOB_FAULTS = {
    "bad job_id": _set(0, "x7"),
    "bad submit": _set(1, "1.0.0"),
    "bad dispatch": _set(2, ""),
    "bad user": _set(4, "1.5"),
    "bad node token": _set(6, "1;a"),
    "trailing separator": _set(6, "2;"),
    "empty node_ids": _set(6, ""),
    "duplicate node": _set(6, "4;9;4"),
    "negative node": _set(6, "3;-1"),
    "zero processors": _set(5, "0"),
    "bad flag": _set(7, "2"),
    "negative submit": _set(1, "-1.0"),
    "dispatch before submit": _set(2, "-5.0"),
    "end before dispatch": _set(3, "-4.0"),
    "nan submit": _set(1, "nan"),
    "inf dispatch": _set(2, "inf"),
    "inf end": _set(3, "inf"),
    "nan end": _set(3, "NaN"),
    "huge user": _set(4, str(2**70)),
    "huge node": _set(6, f"1;{2**63}"),
    "short row": lambda r: r[:-1],
    "long row": lambda r: r + ["0"],
}

TEMPERATURE_FAULTS = {
    "bad time": _set(0, "t"),
    "bad node": _set(1, "1e3"),
    "bad celsius": _set(2, "warm"),
    "negative time": _set(0, "-0.5"),
    "nan time": _set(0, "nan"),
    "inf time": _set(0, "inf"),
    "negative node": _set(1, "-2"),
    "huge node": _set(1, str(2**64)),
    "nan celsius": _set(2, "nan"),
    "inf celsius": _set(2, "-inf"),
    "too hot": _set(2, "150.5"),
    "too cold": _set(2, "-51"),
    "short row": lambda r: r[:2],
    "long row": lambda r: r + ["1"],
}


@st.composite
def faulty_table(draw, rows_strategy, faults: dict, header: list[str]) -> str:
    rows = draw(st.lists(rows_strategy, min_size=1, max_size=15))
    # One or two faults, so the loader must find the first failing row
    # whatever kinds of check fail.
    for _ in range(draw(st.integers(1, 2))):
        at = draw(st.integers(0, len(rows) - 1))
        rows[at] = faults[draw(st.sampled_from(sorted(faults)))](rows[at])
    return draw(csv_text(header, rows))


def check_against_oracle(oracle, loader, columns_of, path: Path) -> None:
    """The loader raises what the oracle raises, or loads what it loads."""
    try:
        records = oracle(path, SYSTEM_ID)
    except ArchiveIOError:
        assert_same_error(oracle, loader, path)
        return
    expected = columns_of(sorted(records))
    # Two faults can cancel out (a short row made long again).
    assert_columns_equal(loader(path, SYSTEM_ID), expected)


class TestLoaderRaisesLikeOracle:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.large_base_example],
    )
    @given(data=st.data())
    def test_job_faults(self, tmp_path_factory, data):
        path = fresh_dir(tmp_path_factory) / "jobs.csv"
        path.write_text(data.draw(faulty_table(job_rows(), JOB_FAULTS, JOBS_HEADER)))
        check_against_oracle(
            reference_read_jobs, read_jobs, JobColumns.from_records, path
        )

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.large_base_example],
    )
    @given(data=st.data())
    def test_temperature_faults(self, tmp_path_factory, data):
        path = fresh_dir(tmp_path_factory) / "temperatures.csv"
        path.write_text(
            data.draw(
                faulty_table(
                    temperature_rows(), TEMPERATURE_FAULTS, TEMPERATURES_HEADER
                )
            )
        )
        check_against_oracle(
            reference_read_temperatures,
            read_temperatures,
            TemperatureColumns.from_records,
            path,
        )

    @pytest.mark.parametrize("fault", sorted(JOB_FAULTS))
    def test_each_job_fault(self, tmp_path, fault):
        good = ["4", "1.0", "1.5", "2.5", "1", "4", "3;5", "0"]
        rows = [good, JOB_FAULTS[fault](good), good]
        path = tmp_path / "jobs.csv"
        path.write_text("\n".join(map(",".join, [JOBS_HEADER, *rows])) + "\n")
        assert_same_error(reference_read_jobs, read_jobs, path)
        with pytest.raises(ArchiveIOError, match=f"^{path}:3: "):
            read_jobs(path, SYSTEM_ID)

    @pytest.mark.parametrize("fault", sorted(TEMPERATURE_FAULTS))
    def test_each_temperature_fault(self, tmp_path, fault):
        good = ["1.0", "3", "25.0"]
        rows = [good, good, TEMPERATURE_FAULTS[fault](good)]
        path = tmp_path / "temperatures.csv"
        path.write_text(
            "\n".join(map(",".join, [TEMPERATURES_HEADER, *rows])) + "\n"
        )
        assert_same_error(reference_read_temperatures, read_temperatures, path)
        with pytest.raises(ArchiveIOError, match=f"^{path}:4: "):
            read_temperatures(path, SYSTEM_ID)


# --- spellings ------------------------------------------------------------

# int() and float() read these as 0-9; the C reader does not.
ARABIC_INDIC_DIGITS = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))

# Decimals longer than a double holds, so parsing them must round.
long_decimals = st.from_regex(r"\A[0-9]{1,3}\.[0-9]{16,40}\Z")


def _underscored(token: str) -> str:
    """``token`` with an underscore between its first two adjacent digits."""
    for k in range(len(token) - 1):
        if token[k].isdigit() and token[k + 1].isdigit():
            return f"{token[: k + 1]}_{token[k + 1 :]}"
    return token


@st.composite
def respelled(draw, token: str, integer: bool, percent: int) -> str:
    """``token`` or, ``percent`` times in a hundred, another spelling of
    it -- of the same value or not, one ``int()``/``float()`` accept or
    not."""
    if draw(st.integers(0, 99)) >= percent:
        return token
    variants = [
        f" {token}",
        f"{token}\t ",
        f"\xa0{token}",
        _underscored(token),
        token.translate(ARABIC_INDIC_DIGITS),
        # numpy's C parsers read these two wrongly: it skips the ASCII
        # unit separator as whitespace and takes U+01FE for a digit.
        f"{token}\x1f",
        f"\u01fe{token}",
        "nan(1)",
        "\ufeff" + token,
    ]
    if integer:
        variants += [
            f"+{token}",
            f"0{token}",
            f"{token}.0",
            f"{token}e0",
            str(2**63),
            str(-(2**63)),
        ]
    else:
        variants += [
            str(Decimal(float(token))),  # the exact binary value, in full
            token.upper(),
            draw(long_decimals),
        ]
    return draw(st.sampled_from(variants))


@st.composite
def spelled_job_rows(draw, percent: int) -> list[str]:
    submit = draw(st.floats(0, 1e6))
    dispatch = submit + draw(st.floats(0, 10))
    end = dispatch + draw(st.floats(0, 10))
    nodes = draw(
        st.lists(
            st.integers(0, NUM_NODES - 1), min_size=1, max_size=4, unique=True
        )
    )
    return [
        draw(respelled(str(draw(st.integers(0, 5))), True, percent)),
        draw(respelled(repr(submit), False, percent)),
        draw(respelled(repr(dispatch), False, percent)),
        draw(respelled(repr(end), False, percent)),
        draw(respelled(str(draw(st.integers(0, 3))), True, percent)),
        draw(respelled(str(draw(st.integers(1, 16))), True, percent)),
        ";".join([draw(respelled(str(node), True, percent)) for node in nodes]),
        draw(respelled(draw(st.sampled_from("01")), True, percent)),
    ]


@st.composite
def spelled_temperature_rows(draw, percent: int) -> list[str]:
    return [
        draw(respelled(repr(draw(st.floats(0, 1e6))), False, percent)),
        draw(respelled(str(draw(st.integers(0, NUM_NODES - 1))), True, percent)),
        draw(respelled(repr(draw(st.floats(-50, 150))), False, percent)),
    ]


CATEGORY_SUBTYPES = [
    ("HW", ["", "MEM", "CPU"]),
    ("SW", ["", "OS", "PFS"]),
    ("ENV", ["", "UPS"]),
    ("NET", ["SWITCH"]),
    ("HUMAN", [""]),
    ("UNDET", [""]),
]
BAD_CATEGORY_SUBTYPES = [("NOPE", [""]), ("HW", ["OS"]), ("UNDET", ["MEM"])]


@st.composite
def spelled_failure_rows(draw, percent: int) -> list[str]:
    category, subtypes = draw(st.sampled_from(CATEGORY_SUBTYPES))
    if draw(st.integers(0, 99)) < percent:
        category, subtypes = draw(st.sampled_from(BAD_CATEGORY_SUBTYPES))
    return [
        draw(respelled(repr(draw(st.floats(0, 1e6))), False, percent)),
        draw(respelled(str(draw(st.integers(0, NUM_NODES - 1))), True, percent)),
        draw(st.sampled_from([category, category.lower(), f" {category} "])),
        draw(st.sampled_from(subtypes)),
        draw(respelled(repr(draw(st.floats(0, 100))), False, percent)),
    ]


@st.composite
def spelled_text(draw, header: list[str], rows: list[list[str]]) -> str:
    """``rows`` as CSV text with one line end (LF, CRLF or bare CR),
    random quoting, blank lines and, now and then, a whitespace-only
    line, a ``# x`` line or a byte order mark."""
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [",".join(header)]
    for row in rows:
        while draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", "", "", "", "", "", " ", "# x"])))
        lines.append(
            ",".join(f'"{f}"' if draw(st.integers(0, 3)) == 0 else f for f in row)
        )
    text = eol.join(lines) + draw(st.sampled_from([eol, ""]))
    if draw(st.integers(0, 19)) == 0:
        text = "\ufeff" + text
    return text


def check_records_against_oracle(path: Path) -> None:
    """``read_failures`` raises what the oracle raises, or returns its
    records, every field equal."""
    try:
        records = reference_read_failures(path, SYSTEM_ID)
    except ArchiveIOError:
        assert_same_error(reference_read_failures, read_failures, path)
        return
    assert as_tuples(read_failures(path, SYSTEM_ID)) == as_tuples(records)


# --- fallback counter -----------------------------------------------------


@pytest.fixture()
def metrics():
    telemetry.reset_metrics()
    telemetry.enable_metrics()
    yield telemetry.registry()
    telemetry.set_metrics_enabled(False)
    telemetry.reset_metrics()


def fallbacks(registry) -> float:
    return sum(
        value
        for key, value in registry.snapshot()["counters"].items()
        if key.startswith("records.load_fallback")
    )


SPELLING_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.large_base_example, HealthCheck.too_slow],
)


class TestSpellingsMatchOracle:
    @SPELLING_SETTINGS
    @given(data=st.data())
    def test_jobs(self, tmp_path_factory, data):
        percent = data.draw(st.sampled_from([0, 3, 30]))
        rows = data.draw(st.lists(spelled_job_rows(percent), max_size=6))
        path = fresh_dir(tmp_path_factory) / "jobs.csv"
        path.write_bytes(data.draw(spelled_text(JOBS_HEADER, rows)).encode())
        check_against_oracle(
            reference_read_jobs, read_jobs, JobColumns.from_records, path
        )

    @SPELLING_SETTINGS
    @given(data=st.data())
    def test_temperatures(self, tmp_path_factory, data):
        percent = data.draw(st.sampled_from([0, 3, 30]))
        rows = data.draw(st.lists(spelled_temperature_rows(percent), max_size=6))
        path = fresh_dir(tmp_path_factory) / "temperatures.csv"
        path.write_bytes(
            data.draw(spelled_text(TEMPERATURES_HEADER, rows)).encode()
        )
        check_against_oracle(
            reference_read_temperatures,
            read_temperatures,
            TemperatureColumns.from_records,
            path,
        )

    @SPELLING_SETTINGS
    @given(data=st.data())
    def test_failures(self, tmp_path_factory, data):
        percent = data.draw(st.sampled_from([0, 3, 30]))
        rows = data.draw(st.lists(spelled_failure_rows(percent), max_size=6))
        path = fresh_dir(tmp_path_factory) / "failures.csv"
        path.write_bytes(data.draw(spelled_text(FAILURES_HEADER, rows)).encode())
        check_records_against_oracle(path)

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(value=st.floats(min_value=0.0, allow_infinity=False))
    def test_repr_of_any_float(self, tmp_path_factory, metrics, value):
        """The C reader reads every ``repr`` back as ``float()`` does."""
        path = fresh_dir(tmp_path_factory) / "failures.csv"
        path.write_text(f"{','.join(FAILURES_HEADER)}\n{value!r},0,HW,,{value!r}\n")
        before = fallbacks(metrics)
        [record] = read_failures(path, SYSTEM_ID)
        assert fallbacks(metrics) == before
        assert repr(record.time) == repr(record.downtime_hours) == repr(value)
        check_records_against_oracle(path)

    @pytest.mark.parametrize(
        "token",
        ["1_000", "1.0", "1e3", str(2**63), "nan(1)", "\u0661", " 7 ", '"7"'],
    )
    def test_integer_column_spellings(self, tmp_path, token):
        path = tmp_path / "temperatures.csv"
        path.write_text(f"time,node_id,celsius\n1.0,{token},25.0\n")
        check_against_oracle(
            reference_read_temperatures,
            read_temperatures,
            TemperatureColumns.from_records,
            path,
        )

    def test_hash_row_is_a_short_row(self, tmp_path):
        """``np.loadtxt``'s default ``comments='#'`` would skip this row;
        ``csv.reader`` reports it as a short row."""
        path = tmp_path / "temperatures.csv"
        path.write_text("time,node_id,celsius\n1.0,0,25.0\n# x\n2.0,0,25.0\n")
        assert_same_error(reference_read_temperatures, read_temperatures, path)
        with pytest.raises(ArchiveIOError, match=f"^{path}:3: short row$"):
            read_temperatures(path, SYSTEM_ID)

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
    def test_line_ends(self, tmp_path, eol):
        path = tmp_path / "failures.csv"
        rows = [",".join(FAILURES_HEADER), "2.5,1,HW,MEM,1.5", "", "1.0,3,SW,,0.0"]
        path.write_bytes((eol.join(rows) + eol).encode())
        assert [f.node_id for f in read_failures(path, SYSTEM_ID)] == [1, 3]
        check_records_against_oracle(path)


class TestFallbackCounter:
    def test_python_only_spelling_loads_through_the_fallback(
        self, tmp_path, metrics
    ):
        path = tmp_path / "jobs.csv"
        rows = [
            JOBS_HEADER,
            ["1_000", "1.0", "1.5", "2.5", "1", "4", "3;5", "0"],
            ["7", "0.5", "1.0", "1.0", "2", "8", "1", "1"],
        ]
        path.write_text("\n".join(map(",".join, rows)) + "\n")
        got = read_jobs(path, SYSTEM_ID)
        assert_columns_equal(
            got,
            JobColumns.from_records(sorted(reference_read_jobs(path, SYSTEM_ID))),
        )
        assert got.job_ids.tolist() == [7, 1000]
        assert metrics.counter_value("records.load_fallback", table="jobs") == 1
        assert fallbacks(metrics) == 1

    def test_saved_archive_loads_without_fallback(
        self, tiny_archive, tmp_path, metrics
    ):
        save_archive(tiny_archive, tmp_path / "arch")
        load_archive(tmp_path / "arch")
        assert fallbacks(metrics) == 0
