"""Matrix CSV writer and reader against the csv-module reference."""

import contextlib
import csv
import datetime
import os
import signal
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tracepattern import export, parallel
from tracepattern.errors import ExportError
from tracepattern.export import read_matrix_csv, write_matrix_csv
from tracepattern.ingest import IntervalIndex
from tracepattern.patterns import SpatioTemporalMatrix

from conftest import assert_no_child

INT64 = np.iinfo(np.int64)
INT32 = np.iinfo(np.int32)
FLOAT32 = np.finfo(np.float32)
DAY = datetime.date(2016, 10, 1)


def oracle_write(matrix: SpatioTemporalMatrix, path):
    """The csv-module reference for ``write_matrix_csv``, without the sidecar."""
    integral = np.issubdtype(matrix.values.dtype, np.integer)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["road_id"] + matrix.interval_labels())
        for rid, row in zip(matrix.road_ids, matrix.values):
            if integral:
                w.writerow([rid] + [int(v) for v in row])
            else:
                w.writerow([rid] + [repr(float(v)) for v in row])


def oracle_read(path) -> SpatioTemporalMatrix:
    """The csv-module reference for ``read_matrix_csv``."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ExportError(f"{path} is empty")
    intervals = [IntervalIndex.from_label(lbl) for lbl in rows[0][1:]]
    road_ids = []
    values = []
    for row in rows[1:]:
        road_ids.append(int(row[0]))
        values.append([float(v) for v in row[1:]])
    grid = np.asarray(values) if road_ids else np.empty((0, len(intervals)))
    return SpatioTemporalMatrix(road_ids, intervals, grid)


def axis(first_slot, n):
    """``n`` consecutive intervals from slot ``first_slot`` of DAY on."""
    return [IntervalIndex(DAY + datetime.timedelta(days=s // 96), s % 96)
            for s in range(first_slot, first_slot + n)]


EDGE_FLOATS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e16, 1e-5,
               np.finfo(np.float64).max, -np.finfo(np.float64).max, 0.1, 36.0]
floats = st.floats(width=64) | st.sampled_from(EDGE_FLOATS)
ints = st.integers(INT64.min, INT64.max) | st.sampled_from([INT64.min, INT64.max, 0, -1])


@st.composite
def matrices(draw):
    n_roads = draw(st.integers(0, 5))
    n_intervals = draw(st.integers(0, 5))
    road_ids = draw(st.lists(ints, min_size=n_roads, max_size=n_roads, unique=True))
    if draw(st.booleans()):
        values = draw(hnp.arrays(np.int64, (n_roads, n_intervals), elements=ints))
    else:
        values = draw(hnp.arrays(np.float64, (n_roads, n_intervals), elements=floats))
    return SpatioTemporalMatrix(road_ids, axis(draw(st.integers(0, 400)), n_intervals),
                                values)


# mostly zeros, as in a network-scale flow or speed matrix, so that rows mix
# zero cells with values whose bits are not all zero
SPARSE_FLOATS = [0.0] * 12 + [-0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 1.0, 36.25]
SPARSE_INTS = [0] * 12 + [INT64.min, INT64.max, -1, 1, 7]


@st.composite
def sparse_matrices(draw):
    n_roads = draw(st.integers(0, 6))
    n_intervals = draw(st.integers(0, 40))
    road_ids = draw(st.lists(ints, min_size=n_roads, max_size=n_roads, unique=True))
    if draw(st.booleans()):
        values = draw(hnp.arrays(np.int64, (n_roads, n_intervals),
                                 elements=st.sampled_from(SPARSE_INTS)))
    else:
        values = draw(hnp.arrays(np.float64, (n_roads, n_intervals),
                                 elements=st.sampled_from(SPARSE_FLOATS)))
    return SpatioTemporalMatrix(road_ids, axis(draw(st.integers(0, 400)), n_intervals),
                                values)


NONZERO_INTS = [v for v in SPARSE_INTS if v]
NONZERO_FLOATS = [v for v in SPARSE_FLOATS + EDGE_FLOATS if np.float64(v).view(np.uint64)]


@st.composite
def switch_matrices(draw):
    """Rows around the writer's half-density switch: each row of width ``n``
    has 0, n//2 - 1, n//2, (n + 1)//2 or n cells whose bits are not zero, so
    a row is spliced into the zero-row text when 2 * count < n and joined
    whole otherwise."""
    n = draw(st.integers(0, 13))
    n_roads = draw(st.integers(1, 6))
    road_ids = draw(st.lists(ints, min_size=n_roads, max_size=n_roads, unique=True))
    integral = draw(st.booleans())
    dtype, nonzero = (np.int64, NONZERO_INTS) if integral else (np.float64, NONZERO_FLOATS)
    counts = sorted({c for c in (0, n // 2 - 1, n // 2, (n + 1) // 2, n) if c >= 0})
    values = np.zeros((n_roads, n), dtype)
    for row in values:
        k = draw(st.sampled_from(counts))
        cols = draw(st.permutations(range(n)))[:k]
        row[cols] = draw(st.lists(st.sampled_from(nonzero), min_size=k, max_size=k))
    return SpatioTemporalMatrix(road_ids, axis(draw(st.integers(0, 400)), n), values)


EDGE_MATRICES = {
    "float_edges": SpatioTemporalMatrix([1, 2], axis(0, 6),
                                        np.array(EDGE_FLOATS).reshape(2, 6)),
    "int64_extremes": SpatioTemporalMatrix([7], axis(95, 4),
                                           np.array([[INT64.min, INT64.max, 0, -1]])),
    "int64_road_ids": SpatioTemporalMatrix([INT64.min, -1, 0, INT64.max], axis(3, 2),
                                           np.arange(8, dtype=np.float64).reshape(4, 2)),
    "no_roads": SpatioTemporalMatrix([], axis(0, 96), np.empty((0, 96))),
    "one_road": SpatioTemporalMatrix([5], axis(0, 3), np.array([[1.5, np.nan, 2.0]])),
    "one_interval": SpatioTemporalMatrix([3, 1, 2], axis(40, 1), np.array([[1], [0], [9]])),
    "sparse_edges": SpatioTemporalMatrix([4, 8, 6], axis(90, 5), np.array([
        [0.0, 0.0, 0.0, 0.0, 0.0],        # all zero
        [1.5, -0.0, np.nan, 5e-324, 2.0],  # no zero bits
        [0.0, 0.0, -0.0, 0.0, 0.0],        # a lone -0.0
    ])),
    "zero_width": SpatioTemporalMatrix([2, 1], [], np.empty((2, 0))),
    "int32_extremes": SpatioTemporalMatrix([1, 2], axis(0, 4), np.array(
        [[INT32.min, 0, INT32.max, -1], [0, 0, 0, 0]], dtype=np.int32)),
    "float32_edges": SpatioTemporalMatrix([1, 2], axis(0, 5), np.array(
        [[np.nan, -0.0, 0.0, np.inf, 0.1],
         [0.0, -np.inf, FLOAT32.max, FLOAT32.smallest_subnormal, 0.0]], dtype=np.float32)),
}


def assert_same_matrix(got, want):
    assert got.road_ids == want.road_ids
    assert all(type(rid) is int for rid in got.road_ids)
    assert got.intervals == want.intervals
    assert got.values.dtype == np.float64 and got.values.flags.c_contiguous
    assert got.values.shape == want.values.shape
    np.testing.assert_array_equal(got.values.view(np.uint64), want.values.view(np.uint64))


def write_both(matrix, tmp_path):
    ours, ref = tmp_path / "ours.csv", tmp_path / "oracle.csv"
    write_matrix_csv(matrix, ours)
    oracle_write(matrix, ref)
    return ours.read_bytes(), ref.read_bytes(), ref


class TestEqualsOracle:
    @pytest.mark.parametrize("name", sorted(EDGE_MATRICES))
    def test_edge_matrices(self, name, tmp_path):
        ours, ref, path = write_both(EDGE_MATRICES[name], tmp_path)
        assert ours == ref
        assert_same_matrix(read_matrix_csv(path), oracle_read(path))

    @given(matrix=matrices() | sparse_matrices())
    @settings(max_examples=400, deadline=None)
    def test_writer_bytes(self, matrix, tmp_path_factory):
        ours, ref, _ = write_both(matrix, tmp_path_factory.mktemp("w"))
        assert ours == ref

    @given(matrix=switch_matrices(), block=st.sampled_from([1, 7, export._ROW_BLOCK]),
           split=st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_writer_bytes_at_the_half_density_switch(self, matrix, block, split,
                                                     tmp_path_factory):
        """Spliced and joined rows, in blocks of one row or more, on one or
        two CPUs, give the reference bytes."""
        d = tmp_path_factory.mktemp("h")
        oracle_write(matrix, d / "oracle.csv")
        with contextlib.ExitStack() as stack:
            stack.enter_context(mock.patch.object(export, "_ROW_BLOCK", block))
            fork = stack.enter_context(split_jobs()) if split else None
            write_matrix_csv(matrix, d / "ours.csv")
        assert fork is None or fork.call_count == 1
        assert (d / "ours.csv").read_bytes() == (d / "oracle.csv").read_bytes()

    @given(matrix=matrices())
    @settings(max_examples=200, deadline=None)
    def test_reader_bits(self, matrix, tmp_path_factory):
        path = tmp_path_factory.mktemp("r") / "m.csv"
        oracle_write(matrix, path)
        assert_same_matrix(read_matrix_csv(path), oracle_read(path))


def test_header_only_reads_as_empty_matrix_without_warning(tmp_path):
    path = tmp_path / "empty.csv"
    write_matrix_csv(EDGE_MATRICES["no_roads"], path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = read_matrix_csv(path)
    assert got.values.shape == (0, 96) and got.road_ids == []


@pytest.mark.parametrize("text, message", [
    ("", "is empty"),
    ("road_id,2016-10-01T00:00\r\n9223372036854775808,1.0\r\n", "int64"),
    ("road_id,2016-10-01T00:00\r\n1.5,1.0\r\n", "int64"),
    ("road_id,2016-10-01T00:00\r\n1,x\r\n", "'x'"),
    ("road_id,2016-10-01T00:00,2016-10-01T00:15\r\n1,1.0\r\n", "line 2"),
    ("road_id,2016-10-01T00:07\r\n1,1.0\r\n", r"bad\.csv header: '2016-10-01T00:07'"),
    ("road_id,2016-10-01T24:00\r\n1,1.0\r\n", r"bad\.csv header: '2016-10-01T24:00'"),
])
def test_malformed_file_is_export_error(text, message, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode())
    with pytest.raises(ExportError, match=message):
        read_matrix_csv(path)


def test_non_utf8_file_is_export_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"road_id,2016-10-01T00:00\r\n1,\xff\r\n")
    with pytest.raises(ExportError, match="not UTF-8"):
        read_matrix_csv(path)


def with_header(lines, *cols):
    """``lines`` of a matrix CSV with the labels of its interval columns ``cols``."""
    labels = lines[0].rstrip(b"\r\n").split(b",")[1:]
    return [b",".join([b"road_id", *(labels[c] for c in cols), *labels[len(cols):]])
            + b"\r\n", *lines[1:]]


@pytest.mark.parametrize("edit, message", [
    (lambda lines: with_header(lines, 0, 2, 1),
     r"header: '2016-10-01T00:15' does not come after '2016-10-01T00:30'"),
    (lambda lines: with_header(lines, 0, 1, 1),
     r"header: '2016-10-01T00:15' does not come after '2016-10-01T00:15'"),
    (lambda lines: lines[:2] + lines[1:], "road 100 is on two rows"),        # front half
    (lambda lines: lines + lines[-1:], "road 139 is on two rows"),           # back half
    (lambda lines: lines[:-1] + lines[1:2] + lines[-1:], "road 100 is on two rows"),  # both
], ids=["labels_swapped", "label_repeated", "road_twice_front", "road_twice_back",
        "road_in_both_halves"])
@pytest.mark.parametrize("split", [False, True], ids=["serial", "split"])
def test_axis_out_of_order_or_repeated_is_export_error(edit, message, split, tmp_path):
    path = tmp_path / "bad.csv"
    write_matrix_csv(random_matrix(40, 100), path)
    path.write_bytes(b"".join(edit(path.read_bytes().splitlines(keepends=True))))
    with contextlib.ExitStack() as stack:
        if split:
            stack.enter_context(split_jobs())
        with pytest.raises(ExportError, match=message) as err:
            read_matrix_csv(path)
    assert str(err.value).startswith(str(path)) and "\n" not in str(err.value)


def test_write_json_refuses_nan(tmp_path):
    with pytest.raises(ValueError):
        export.write_json({"f2": float("nan")}, tmp_path / "x.json")
    with pytest.raises(ValueError):
        export.write_json([np.float64(np.inf)], tmp_path / "y.json")
    assert os.listdir(tmp_path) == []


def test_writer_memory_stays_below_matrix_size(tmp_path):
    rng = np.random.default_rng(0)
    dense = rng.random((500, 1344)) * 100.0
    # 97% zero cells, as in a network-scale matrix
    sparse = np.where(rng.random(dense.shape) < 0.97, 0.0, dense)
    for values in (dense, sparse):
        matrix = SpatioTemporalMatrix(list(range(500)), axis(0, 1344), values)
        tracemalloc.start()
        try:
            write_matrix_csv(matrix, tmp_path / "big.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < values.nbytes


@contextlib.contextmanager
def split_jobs(strict=True, cpus=(0, 1)):
    """Split every matrix CSV job, whatever its size, as on a machine with
    the CPUs ``cpus``; yields the mock that counts the forks. With
    ``strict``, a fall back to the serial path fails the test."""
    real = parallel.fork_split

    def no_fallback(front, back, join, serial):
        return real(front, back, join, lambda: pytest.fail("fell back to the serial path"))

    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(export, "SPLIT_WRITE_CELLS", 0))
        stack.enter_context(mock.patch.object(export, "SPLIT_READ_BYTES", 0))
        stack.enter_context(mock.patch.object(os, "sched_getaffinity",
                                              return_value=set(cpus)))
        if strict:
            stack.enter_context(mock.patch.object(parallel, "fork_split", no_fallback))
        yield stack.enter_context(mock.patch.object(os, "fork", wraps=os.fork))


def random_matrix(n_roads, n_intervals, integral=False, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.random((n_roads, n_intervals)) * 100.0
    values[rng.random(values.shape) < 0.2] = 0.0
    if integral:
        values = values.astype(np.int64)
    return SpatioTemporalMatrix(list(range(100, 100 + n_roads)), axis(0, n_intervals), values)


class TestSplitEqualsSerial:
    """Rows split between this process and a forked child give the serial
    bytes and the serial matrix, with no fall back."""

    @given(matrix=matrices() | sparse_matrices())
    @settings(max_examples=200, deadline=None)
    def test_writer_bytes_and_reader_bits(self, matrix, tmp_path_factory):
        d = tmp_path_factory.mktemp("s")
        write_matrix_csv(matrix, d / "serial.csv")
        with split_jobs() as fork:
            write_matrix_csv(matrix, d / "split.csv")
            got = read_matrix_csv(d / "serial.csv")
        assert fork.call_count == 2
        assert (d / "split.csv").read_bytes() == (d / "serial.csv").read_bytes()
        assert_same_matrix(got, read_matrix_csv(d / "serial.csv"))

    @pytest.mark.parametrize("integral", [False, True], ids=["float", "int"])
    @pytest.mark.parametrize("n_roads", [0, 1, 2, 3, 7, 40])
    def test_row_counts(self, n_roads, integral, tmp_path):
        matrix = random_matrix(n_roads, 97, integral)
        write_matrix_csv(matrix, tmp_path / "serial.csv")
        with split_jobs() as fork:
            write_matrix_csv(matrix, tmp_path / "split.csv")
            got = read_matrix_csv(tmp_path / "split.csv")
        assert fork.call_count == 2
        assert (tmp_path / "split.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
        assert_same_matrix(got, read_matrix_csv(tmp_path / "serial.csv"))
        assert_no_child()

    @pytest.mark.parametrize("name", sorted(EDGE_MATRICES))
    def test_edge_matrices(self, name, tmp_path):
        ours, ref, path = write_both(EDGE_MATRICES[name], tmp_path)
        with split_jobs():
            write_matrix_csv(EDGE_MATRICES[name], tmp_path / "split.csv")
            got = read_matrix_csv(path)
        assert (tmp_path / "split.csv").read_bytes() == ref
        assert_same_matrix(got, oracle_read(path))


class TestSplitFallsBack:
    # rows of ~1.8 kB, so that row 8 lies past the text reader's first 8 kB,
    # which it decodes with the header
    @pytest.mark.parametrize("row", [8, 38], ids=["front", "back"])
    @pytest.mark.parametrize("edit", [
        lambda line: line.replace(b",", b",x", 1),
        lambda line: line.rsplit(b",", 1)[0] + b"\r\n",
        lambda line: line.replace(b",", b",,", 1),
        lambda line: b"9223372036854775808" + line[line.index(b","):],
        lambda line: line.replace(b",", b",\xff", 1),
        lambda line: line.replace(b",", b",1\r", 1),
    ], ids=["bad_cell", "short_row", "empty_cell", "id_overflow", "not_utf8", "bare_cr"])
    def test_malformed_row_gives_the_serial_error(self, row, edit, tmp_path):
        path = tmp_path / "bad.csv"
        write_matrix_csv(random_matrix(40, 100), path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1 + row] = edit(lines[1 + row])
        path.write_bytes(b"".join(lines))
        with pytest.raises(ExportError) as serial:
            read_matrix_csv(path)
        with split_jobs(strict=False) as fork, pytest.raises(ExportError) as split:
            read_matrix_csv(path)
        assert fork.call_count == 1
        assert str(split.value) == str(serial.value)
        assert_no_child()

    @pytest.mark.parametrize("how", ["raise", "kill"])
    @pytest.mark.parametrize("job", ["write", "read"])
    def test_failed_child(self, job, how, tmp_path):
        """A child that raises or dies leaves the serial result and no child."""
        parent = os.getpid()
        name = {"write": "_write_rows", "read": "_load_lines"}[job]
        real = getattr(export, name)

        def fails_in_child(*args):
            if os.getpid() != parent:
                if how == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise RuntimeError("the child fails")
            return real(*args)

        matrix = random_matrix(9, 50)
        out = tmp_path / "out"
        out.mkdir()
        write_matrix_csv(matrix, tmp_path / "serial.csv")
        assert_no_child()
        with split_jobs(strict=False) as fork, mock.patch.object(export, name, fails_in_child):
            if job == "write":
                write_matrix_csv(matrix, out / "m.csv")
            else:
                (out / "m.csv").write_bytes((tmp_path / "serial.csv").read_bytes())
                got = read_matrix_csv(out / "m.csv")
        assert fork.call_count == 1
        assert_no_child()
        assert os.listdir(out) == ["m.csv"]
        assert (out / "m.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
        if job == "read":
            assert_same_matrix(got, read_matrix_csv(tmp_path / "serial.csv"))

    def test_front_half_raising_still_reaps_the_child(self, tmp_path):
        real = export._write_rows

        def front_fails(fh, matrix, lo, hi):
            if (lo, hi) == (0, len(matrix.road_ids) // 2):
                raise RuntimeError("the front half fails")
            return real(fh, matrix, lo, hi)

        matrix = random_matrix(9, 50)
        write_matrix_csv(matrix, tmp_path / "serial.csv")
        out = tmp_path / "out"
        out.mkdir()
        with split_jobs(strict=False) as fork, \
                mock.patch.object(export, "_write_rows", front_fails):
            write_matrix_csv(matrix, out / "m.csv", metadata={"a": 1})
        assert fork.call_count == 1
        assert_no_child()
        assert sorted(os.listdir(out)) == ["m.csv", "m.csv.meta.json"]
        assert (out / "m.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()

    def test_success_leaves_no_child_and_no_file(self, tmp_path):
        matrix = random_matrix(9, 50)
        with split_jobs() as fork:
            write_matrix_csv(matrix, tmp_path / "m.csv")
            read_matrix_csv(tmp_path / "m.csv")
        assert fork.call_count == 2
        assert_no_child()
        assert os.listdir(tmp_path) == ["m.csv"]


class TestWhenToSplit:
    def test_one_cpu_never_forks(self, tmp_path):
        matrix = random_matrix(9, 50)
        write_matrix_csv(matrix, tmp_path / "serial.csv")
        with split_jobs(cpus=[0]) as fork:
            write_matrix_csv(matrix, tmp_path / "m.csv")
            got = read_matrix_csv(tmp_path / "m.csv")
        assert fork.call_count == 0
        assert (tmp_path / "m.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
        assert_same_matrix(got, read_matrix_csv(tmp_path / "serial.csv"))

    def test_small_jobs_stay_serial(self, tmp_path):
        # a 220-road day, as in the city-day benchmark workload
        matrix = random_matrix(220, 96)
        with mock.patch.object(os, "sched_getaffinity", return_value={0, 1}), \
                mock.patch.object(os, "fork", side_effect=AssertionError("forked")):
            write_matrix_csv(matrix, tmp_path / "m.csv")
            read_matrix_csv(tmp_path / "m.csv")


class TestSplitMemory:
    """Neither side holds a whole half of the file or of the text."""

    MATRIX = random_matrix(800, 1344)

    def test_writer_appends_the_tail_in_blocks(self, tmp_path):
        with split_jobs():
            tracemalloc.start()
            try:
                write_matrix_csv(self.MATRIX, tmp_path / "m.csv")
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert os.path.getsize(tmp_path / "m.csv") > 12 * export._BLOCK  # a tail of > 6
        assert peak < 3 * export._BLOCK

    def test_reader_loads_lines_one_at_a_time(self, tmp_path):
        write_matrix_csv(self.MATRIX, tmp_path / "m.csv")
        with split_jobs():
            tracemalloc.start()
            try:
                read_matrix_csv(tmp_path / "m.csv")
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        # the front's records, the result and one block; the serial path
        # holds the records and their contiguous copy (2x)
        assert peak < 1.8 * self.MATRIX.values.nbytes
