import contextlib
import datetime
import gzip
import json
import logging
import os
import pathlib
import shutil
import signal
import tempfile
from unittest import mock

import numpy as np
import pytest

from tracepattern import export as ex
from tracepattern import matching, network, parallel, pipeline
from tracepattern.errors import ComparisonError, DataQualityError, IngestError
from tracepattern.ingest import DEFAULT_CHUNK_SIZE
from tracepattern.patterns import SpatioTemporalMatrix, full_interval_axis
from tracepattern.pipeline import STAGES, RunConfig, run_pipeline
from tracepattern.synth import (Scenario, generate, grid_network_doc, uniform_profile,
                                write_scenario)

from conftest import assert_no_child


def test_outputs_invariant_to_chunk_size(tmp_path):
    """The offset sample spans many chunks at size 7 and part of one at
    10**6; those buffered chunks and the order codes that continue across
    chunk boundaries must not change a single output byte."""
    scenario = Scenario(seed=39, grid_rows=3, grid_cols=3, n_days=1,
                        demand_profile=uniform_profile(4),
                        injected_offset=(0.0004, -0.0003))
    gen = generate(scenario)
    net_path, trace_path = write_scenario(gen, str(tmp_path / "data"))
    assert gen.truth.n_pings > 2 * 1000  # the default offset sample size
    runs = []
    for chunk_size in (7, 1_000, 10 ** 6):
        manifest = run_pipeline(RunConfig(
            traces_path=trace_path, network_path=net_path,
            out_dir=str(tmp_path / f"out_{chunk_size}"), chunk_size=chunk_size))
        assert manifest["offset"]["source"] == "estimated"
        runs.append((manifest["offset"], manifest["counts"], manifest["digests"]))
    assert runs[0][0]["dlat"] != 0.0
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("target, stage", [
    ("tracepattern.network.load_network", "load_network"),
    ("tracepattern.matching.match_batch", "ingest_and_match"),
    ("tracepattern.patterns.TensorBuilder.finalize", "build_tensors"),
    ("tracepattern.patterns.clean_speed_matrix", "clean"),
    ("tracepattern.congestion.score_matrix", "analyze"),
    ("tracepattern.export.sha256_file", "export"),
])
def test_manifest_names_the_failed_stage(tmp_path, target, stage):
    gen = generate(Scenario(seed=5, grid_rows=2, grid_cols=2, n_days=1,
                            demand_profile=uniform_profile(2)))
    net_path, trace_path = write_scenario(gen, str(tmp_path / "data"))
    out = tmp_path / "out"
    with mock.patch(target, side_effect=RuntimeError("boom")), \
            pytest.raises(RuntimeError, match="boom"):
        run_pipeline(RunConfig(traces_path=trace_path, network_path=net_path,
                               out_dir=str(out), offset=(0.0, 0.0)))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failed_stage"] == stage and manifest["error"] == "boom"
    assert manifest["stages_completed"] == list(STAGES[:STAGES.index(stage)])


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
def test_flow_cells_must_be_whole_counts(tmp_path, dtype):
    """analyze_saved checks the flow matrix it reads for whole counts a block
    of rows at a time: 760 roads x 96 intervals span two blocks, and a 2.5
    in the last row is found, whatever dtype wrote the file. An integer
    matrix cannot hold the 2.5."""
    doc = grid_network_doc(Scenario(grid_rows=20, grid_cols=20))
    net_path = tmp_path / "network.geojson"
    net_path.write_text(json.dumps(doc))
    net = network.load_network(str(net_path))
    ids = net.ordered_ids()
    axis = full_interval_axis(datetime.date(2016, 10, 1), datetime.date(2016, 10, 1))
    values = np.ones((len(ids), len(axis)), dtype=dtype)
    flow = SpatioTemporalMatrix(ids, axis, values)
    speed = SpatioTemporalMatrix(ids, axis, np.full(values.shape, 30.0))
    flow_path, speed_path = str(tmp_path / "flow.csv"), str(tmp_path / "speed_raw.csv")
    ex.write_matrix_csv(flow, flow_path)
    ex.write_matrix_csv(speed, speed_path)
    config = RunConfig(traces_path=flow_path, network_path=str(net_path),
                       out_dir=str(tmp_path / "a"))
    assert len(ids) * len(axis) > 1 << 16  # more than one block of rows
    pipeline.analyze_saved(config, flow_path, speed_path)
    assert (tmp_path / "a" / "daily.csv").read_text().splitlines()[1].startswith(
        f"2016-10-01,{len(ids) * len(axis)},")
    if dtype == np.int64:
        return
    values[-1, 5] = 2.5
    ex.write_matrix_csv(flow, flow_path)
    with pytest.raises(ComparisonError) as exc:
        pipeline.analyze_saved(config, flow_path, speed_path)
    assert str(exc.value) == (f"road {ids[-1]} of the flow matrix has flow 2.5 at "
                              f"{axis[5].label()}, not a finite count >= 0")


# a day on a 3 x 3 grid, 5,852 pings grouped in runs by order; the front
# half of the file holds more than the default offset sample of 1,000 rows
SPLIT_SCENARIO = Scenario(seed=39, grid_rows=3, grid_cols=3, n_days=1,
                          demand_profile=uniform_profile(4),
                          injected_offset=(0.0004, -0.0003))


@pytest.fixture(scope="module")
def split_inputs(tmp_path_factory):
    """(network path, trace file bytes) of SPLIT_SCENARIO."""
    net_path, trace_path = write_scenario(generate(SPLIT_SCENARIO),
                                          str(tmp_path_factory.mktemp("split")))
    with open(trace_path, "rb") as fh:
        return net_path, fh.read()


@contextlib.contextmanager
def split_traces(strict=True, cpus=(0, 1)):
    """Split every trace file, plain or gzipped, whatever its size or its
    gzip trailer's, as on a machine with the CPUs ``cpus``; yields the mock
    that counts the forks. With ``strict``, a fall back to the serial path
    fails the test."""
    real = parallel.fork_split

    def no_fallback(front, back, join, serial):
        return real(front, back, join, lambda: pytest.fail("fell back to the serial path"))

    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(pipeline, "SPLIT_TRACE_BYTES", 0))
        stack.enter_context(mock.patch.object(os, "sched_getaffinity",
                                              return_value=set(cpus)))
        if strict:
            stack.enter_context(mock.patch.object(parallel, "fork_split", no_fallback))
        yield stack.enter_context(mock.patch.object(os, "fork", wraps=os.fork))


def outcome(config):
    """(error type and text or None, [the IngestStats of the run] or [] if
    ingest raised, every file written to ``out_dir`` as bytes) of one
    run_pipeline; empties ``out_dir`` for the next run."""
    real, stats = pipeline.ingest_and_match, []

    def keep_stats(*args):
        result = real(*args)
        stats.append(result[1])
        return result

    error = None
    with mock.patch.object(pipeline, "ingest_and_match", keep_stats):
        try:
            run_pipeline(config)
        except Exception as exc:
            error = (type(exc), str(exc))
    out = pathlib.Path(config.out_dir)
    files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    shutil.rmtree(config.out_dir)
    return error, stats, files


@contextlib.contextmanager
def temp_dir(path):
    """TMPDIR pointed at the new directory ``path``; asserts it is empty
    at the end."""
    path.mkdir()
    with mock.patch.dict(os.environ, TMPDIR=str(path)), \
            mock.patch.object(tempfile, "tempdir", None):  # read TMPDIR again
        yield
    assert not list(path.iterdir())


def split_equals_serial(trace, net_path, tmp_path, forks=1, cpus=(0, 1), strict=True,
                        name="traces.csv", gz=None, **settings):
    """Write ``trace`` (or the gzip file ``gz``, for a name ending in .gz)
    and run it serially and then split, into the same ``out_dir``, with
    TMPDIR in ``tmp_path``; asserts the same error, stats and bytes,
    ``forks`` forks and an empty TMPDIR after each run. Returns the serial
    outcome."""
    path = tmp_path / name
    if name.endswith(".gz"):
        path.write_bytes(gzip.compress(trace) if gz is None else gz)
    else:
        path.write_bytes(trace)
    config = RunConfig(traces_path=str(path), network_path=net_path,
                       out_dir=str(tmp_path / "out"), **settings)
    with temp_dir(tmp_path / "serial-tmp"):
        serial = outcome(config)
    with temp_dir(tmp_path / "split-tmp"), split_traces(strict, cpus) as fork:
        split = outcome(config)
    assert fork.call_count == forks
    assert_no_child()
    assert split[0] == serial[0]
    assert split[1] == serial[1]  # counts and samples
    assert split[2].keys() == serial[2].keys()
    for file in serial[2]:
        assert split[2][file] == serial[2][file], file
    return serial


def split_line(trace):
    """The index in ``trace.splitlines()`` of the first line that starts at
    or after the middle byte, where the split path cuts the file."""
    return trace[:trace.index(b"\n", len(trace) // 2 - 1) + 1].count(b"\n")


def break_timestamp(line):
    """``line`` with a malformed timestamp of the same length."""
    fields = line.split(b",")
    fields[2] = b"x" + fields[2][1:]
    return b",".join(fields)


def quote_order_id(line):
    """``line`` with its order id quoted, which csv reads as the same id."""
    fields = line.split(b",")
    fields[1] = b'"' + fields[1] + b'"'
    return b",".join(fields)


@contextlib.contextmanager
def child_fails(how):
    """A forked child raises (``how`` "raise") or is killed ("kill") in its
    first match_batch."""
    parent, real = os.getpid(), matching.match_batch

    def fails_in_child(*args):
        if os.getpid() != parent:
            if how == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("the child fails")
        return real(*args)

    with mock.patch.object(matching, "match_batch", fails_in_child):
        yield


def with_lines(trace, edits):
    """``trace`` with each line ``i`` replaced by ``edit(line)`` for ``i,
    edit`` in ``edits``."""
    lines = trace.splitlines(keepends=True)
    for i, edit in edits:
        lines[i] = edit(lines[i])
    return b"".join(lines)


class TestSplitEqualsSerial:
    """A trace file parsed and matched by this process and a forked child
    gives the serial outputs, manifest included, IngestStats and error
    text, with no fall back."""

    @pytest.mark.parametrize("chunk_size", [1, 7, DEFAULT_CHUNK_SIZE])
    def test_chunk_sizes(self, chunk_size, split_inputs, tmp_path):
        net_path, trace = split_inputs
        lines = trace.splitlines()
        k = split_line(trace)
        (tmp_path / "t.csv").write_bytes(trace)
        with split_traces():
            assert pipeline._split_byte(str(tmp_path / "t.csv")) == len(b"".join(
                trace.splitlines(keepends=True)[:k]))
        order = lines[k].split(b",")[1]
        assert lines[k - 1].split(b",")[1] == order  # this order's run straddles the split
        error, _, files = split_equals_serial(trace, net_path, tmp_path,
                                              chunk_size=chunk_size)
        assert error is None
        manifest = json.loads(files["manifest.json"])
        assert manifest["offset"]["source"] == "estimated"
        assert manifest["counts"]["skipped_rows"] == 0
        assert manifest["counts"]["matched"] > 5000

    def test_split_byte_on_a_line_start(self, split_inputs, tmp_path):
        """Zeros appended to the last latitude make the middle byte a line start."""
        net_path, trace = split_inputs
        body = trace.rstrip(b"\n")
        start = body.index(b"\n", len(body) // 2) + 1
        trace = body + b"0" * (2 * start - len(body) - 1) + b"\n"
        assert len(trace) // 2 == start
        with split_traces():
            (tmp_path / "t.csv").write_bytes(trace)
            assert pipeline._split_byte(str(tmp_path / "t.csv")) == start
        split_equals_serial(trace, net_path, tmp_path, chunk_size=7)

    @pytest.mark.parametrize("chunk_size", [1, 7, DEFAULT_CHUNK_SIZE])
    def test_gzip_input(self, chunk_size, split_inputs, tmp_path):
        """Split through a plain copy in TMPDIR, deleted after the run."""
        net_path, trace = split_inputs
        error, _, files = split_equals_serial(trace, net_path, tmp_path, chunk_size=chunk_size,
                                              name="traces.csv.gz")
        assert error is None
        assert json.loads(files["manifest.json"])["config"]["traces_path"].endswith(".csv.gz")

    def test_explicit_offset(self, split_inputs, tmp_path):
        net_path, trace = split_inputs
        error, _, files = split_equals_serial(trace, net_path, tmp_path,
                                              offset=(-0.0004, 0.0003))
        assert error is None
        assert json.loads(files["manifest.json"])["offset"]["source"] == "explicit"

    def test_malformed_first_line_of_the_back_half(self, split_inputs, tmp_path):
        """Counted as skipped, as the serial path does, not taken for a header."""
        net_path, trace = split_inputs
        trace = with_lines(trace, [(split_line(trace), break_timestamp)])
        error, (stats,), _ = split_equals_serial(trace, net_path, tmp_path, chunk_size=7)
        assert error is None
        assert stats.parse_errors == 1 and stats.skipped == 1

    def test_malformed_first_line_of_the_file(self, split_inputs, tmp_path):
        """A row, not a header: the manifest counts it as skipped."""
        net_path, trace = split_inputs
        lines = trace.splitlines(keepends=True)
        trace = b"".join([break_timestamp(lines[1]), *lines[1:]])
        error, (stats,), files = split_equals_serial(trace, net_path, tmp_path, chunk_size=7)
        counts = json.loads(files["manifest.json"])["counts"]
        assert error is None
        assert (counts["skipped_rows"], counts["rows_total"]) == (1, len(lines))
        assert stats.samples[0].startswith("row 1: malformed numeric field")

    def test_rejected_row_deep_in_the_back_half(self, split_inputs, tmp_path):
        net_path, trace = split_inputs
        n = trace.count(b"\n")
        trace = with_lines(trace, [(n * 3 // 4, break_timestamp)])
        error, (stats,), _ = split_equals_serial(trace, net_path, tmp_path)
        assert error is None
        assert len(stats.samples) == 1
        assert stats.samples[0].startswith(f"row {n * 3 // 4 + 1}: malformed numeric field")

    def test_rows_rejected_before_the_first_rate_check(self, split_inputs, tmp_path):
        """A front half of fewer than 1,000 rows with 20 broken ones: the
        rate is first checked once 1,000 rows are read, in the back half, so
        the replay over the merged record raises."""
        net_path, trace = split_inputs
        trace = b"".join(trace.splitlines(keepends=True)[:1801])
        trace = with_lines(trace, [(i, break_timestamp) for i in range(100, 120)])
        error, _, _ = split_equals_serial(trace, net_path, tmp_path,
                                          chunk_size=7, offset=(-0.0004, 0.0003))
        assert error[0] is DataQualityError

    @pytest.mark.parametrize("chunk_size", [7, DEFAULT_CHUNK_SIZE])
    def test_data_quality_error_in_the_back_half_only(self, chunk_size, split_inputs,
                                                      tmp_path):
        """100 broken rows past the middle trip the ceiling at a chunk
        boundary (at size 7) or at end of file, which only the replay sees."""
        net_path, trace = split_inputs
        k = split_line(trace) + 500
        trace = with_lines(trace, [(i, break_timestamp) for i in range(k, k + 100)])
        error, stats, files = split_equals_serial(trace, net_path, tmp_path,
                                                  chunk_size=chunk_size)
        assert error[0] is DataQualityError and f"row {k + 1}: malformed" in error[1]
        assert stats == []
        assert json.loads(files["manifest.json"])["failed_stage"] == "ingest_and_match"

    def test_front_half_over_the_ceiling(self, split_inputs, tmp_path):
        """40 broken rows at the end of the front half: over the ceiling for
        the front half, which is not checked at its end, under it for the
        file, which is checked at its end only."""
        net_path, trace = split_inputs
        k = split_line(trace)
        trace = with_lines(trace, [(i, break_timestamp) for i in range(k - 40, k)])
        error, (stats,), _ = split_equals_serial(trace, net_path, tmp_path)
        assert error is None
        assert stats.skipped == 40 and stats.skipped / k > 0.01

    @pytest.mark.parametrize("chunk_size", [1, 7, DEFAULT_CHUNK_SIZE])
    def test_gzip_input_with_broken_rows(self, chunk_size, split_inputs, tmp_path):
        """Rows broken on both sides of the middle, 12 in all, so the error
        samples take 10 of them across the cut."""
        net_path, trace = split_inputs
        k = split_line(trace)
        broken = [*range(k - 6, k), *range(k, k + 6 * 97, 97)]
        trace = with_lines(trace, [(i, break_timestamp) for i in broken])
        error, (stats,), _ = split_equals_serial(trace, net_path, tmp_path,
                                                 chunk_size=chunk_size, name="traces.csv.gz")
        assert error is None
        assert stats.parse_errors == 12 and len(stats.samples) == 10
        assert [s.split(":")[0] for s in stats.samples] == [f"row {i + 1}" for i in broken[:10]]


class TestSplitFallsBack:
    """Whatever makes the split path give up, the outcome is the serial
    one: outputs, counts, error samples and error text."""

    # at the default chunk size, the offset sample would read the whole
    # front half, which raises before the fork
    @pytest.mark.parametrize("settings", [{"chunk_size": 7}, {"offset": (-0.0004, 0.0003)}],
                             ids=["estimated-offset", "explicit-offset"])
    def test_data_quality_error_in_the_front_half_only(self, settings, split_inputs,
                                                       tmp_path):
        """100 broken rows after the offset sample, all in the front half."""
        net_path, trace = split_inputs
        trace = with_lines(trace, [(i, break_timestamp) for i in range(1500, 1600)])
        assert 1600 < split_line(trace)
        error, stats, files = split_equals_serial(trace, net_path, tmp_path, strict=False,
                                                  **settings)
        assert error[0] is DataQualityError and "row 1501: malformed" in error[1]
        assert json.loads(files["manifest.json"])["failed_stage"] == "ingest_and_match"

    @pytest.mark.parametrize("where", [0.25, 0.75], ids=["front", "back"])
    def test_quote_in_either_half(self, where, split_inputs, tmp_path):
        net_path, trace = split_inputs
        i = int(trace.count(b"\n") * where)
        trace = with_lines(trace, [(i, quote_order_id)])
        assert trace.count(b'"') == 2
        error, _, _ = split_equals_serial(trace, net_path, tmp_path, forks=0)
        assert error is None

    def test_one_cpu(self, split_inputs, tmp_path):
        net_path, trace = split_inputs
        split_equals_serial(trace, net_path, tmp_path, forks=0, cpus=(0,))

    @pytest.mark.parametrize("how", ["raise", "kill"])
    def test_failed_child(self, how, split_inputs, tmp_path):
        """A child that exits 1 or is killed."""
        net_path, trace = split_inputs
        with child_fails(how):
            split_equals_serial(trace, net_path, tmp_path, strict=False)

    def test_offset_sample_larger_than_the_front_half(self, split_inputs, tmp_path):
        net_path, trace = split_inputs
        assert split_line(trace) < 4000 < trace.count(b"\n")
        error, _, _ = split_equals_serial(trace, net_path, tmp_path, forks=0,
                                          offset_sample_size=4000)
        assert error is None


class TestGzipSplitFallsBack:
    """Whatever makes the split of a gzipped trace file give up, the
    outcome is the serial one, and the plain copy in TMPDIR is gone."""

    def test_truncated_stream(self, split_inputs, tmp_path):
        net_path, trace = split_inputs
        gz = gzip.compress(trace)
        error, stats, files = split_equals_serial(trace, net_path, tmp_path, forks=0,
                                                  name="traces.csv.gz", gz=gz[:len(gz) // 2])
        assert error[0] is IngestError and "read failure after row" in error[1]
        assert stats == []
        assert json.loads(files["manifest.json"])["failed_stage"] == "ingest_and_match"

    @pytest.mark.parametrize("where", [0.25, 0.75], ids=["front", "back"])
    def test_non_utf8_byte_in_either_half(self, where, split_inputs, tmp_path):
        """Past the offset sample, so the front half raises after the fork."""
        net_path, trace = split_inputs
        i = int(trace.count(b"\n") * where)
        assert 1000 < i
        trace = with_lines(trace, [(i, lambda line: b"\xff" + line[1:])])
        error, _, _ = split_equals_serial(trace, net_path, tmp_path, strict=False, chunk_size=7,
                                          name="traces.csv.gz")
        assert error[0] is IngestError and "can't decode byte 0xff" in error[1]

    @pytest.mark.parametrize("where", [0.25, 0.75], ids=["front", "back"])
    def test_quote_in_either_half(self, where, split_inputs, tmp_path):
        net_path, trace = split_inputs
        trace = with_lines(trace, [(int(trace.count(b"\n") * where), quote_order_id)])
        error, _, _ = split_equals_serial(trace, net_path, tmp_path, forks=0,
                                          name="traces.csv.gz")
        assert error is None

    def test_copy_stops_at_the_first_quote(self, tmp_path):
        data = b"x\n" * (1 << 21) + b'"\n' + b"x\n" * (1 << 21)
        path, copy = tmp_path / "traces.csv.gz", tmp_path / "copy.csv"
        path.write_bytes(gzip.compress(data))
        with open(copy, "wb") as out, pytest.raises(pipeline._NoSplit, match='a " in the file'):
            pipeline._inflate(str(path), out)
        assert copy.stat().st_size <= data.index(b'"')

    def test_one_cpu(self, split_inputs, tmp_path):
        net_path, trace = split_inputs
        with mock.patch.object(pipeline, "_inflate", wraps=pipeline._inflate) as inflate:
            split_equals_serial(trace, net_path, tmp_path, forks=0, cpus=(0,),
                                name="traces.csv.gz")
        assert inflate.call_count == 0

    @pytest.mark.parametrize("how", ["raise", "kill"])
    def test_failed_child(self, how, split_inputs, tmp_path):
        net_path, trace = split_inputs
        with child_fails(how):
            split_equals_serial(trace, net_path, tmp_path, strict=False, name="traces.csv.gz")


def debug_lines(caplog):
    """The messages tracepattern.pipeline logged into ``caplog``."""
    return [r.getMessage() for r in caplog.records if r.name == pipeline.__name__]


class TestIngestLog:
    """ingest_and_match writes one debug line per run, saying which path ran."""

    @pytest.fixture
    def ingest(self, split_inputs, tmp_path, caplog):
        """ingest(trace, name, data, **settings): debug_lines() of ingesting and
        matching ``trace`` written as ``name``, gzipped if it ends in .gz,
        or the bytes ``data`` if given."""
        net = network.load_network(split_inputs[0])

        def run(trace, name="traces.csv", data=None, **settings):
            path = tmp_path / name
            if data is None:
                data = gzip.compress(trace) if name.endswith(".gz") else trace
            path.write_bytes(data)
            config = RunConfig(traces_path=str(path), network_path=split_inputs[0],
                               out_dir=str(tmp_path / "out"), **settings)
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger=pipeline.__name__):
                pipeline.ingest_and_match(config, net)
            return debug_lines(caplog)

        return run

    @pytest.mark.parametrize("name, note", [("traces.csv", ""),
                                            ("traces.csv.gz", " of a plain copy of the gzip file")])
    def test_split(self, name, note, ingest, split_inputs):
        _, trace = split_inputs
        mid = len(b"".join(trace.splitlines(keepends=True)[:split_line(trace)]))
        with split_traces():
            assert ingest(trace, name) == [f"ingest split at byte {mid} of {len(trace)}{note}"]

    @pytest.mark.parametrize("name", ["traces.csv", "traces.csv.gz"])
    def test_one_cpu_available(self, name, ingest, split_inputs):
        with split_traces(cpus=(0,)):
            assert ingest(split_inputs[1], name) == ["ingest on one CPU: one CPU available"]

    @pytest.mark.parametrize("name", ["traces.csv", "traces.csv.gz"])
    def test_below_the_size_floor(self, name, ingest, split_inputs):
        """The size of a gzipped file is its trailer's, the inflated size."""
        _, trace = split_inputs
        with split_traces(), mock.patch.object(pipeline, "SPLIT_TRACE_BYTES", len(trace) + 1):
            assert ingest(trace, name) == [
                f"ingest on one CPU: below the size floor of {len(trace) + 1} bytes"]

    @pytest.mark.parametrize("name", ["traces.csv", "traces.csv.gz"])
    def test_quote(self, name, ingest, split_inputs):
        _, trace = split_inputs
        trace = with_lines(trace, [(trace.count(b"\n") // 4, quote_order_id)])
        with split_traces():
            assert ingest(trace, name) == ['ingest on one CPU: a " in the file']

    def test_offset_sample_longer_than_the_front_half(self, ingest, split_inputs):
        with split_traces():
            lines = ingest(split_inputs[1], offset_sample_size=4000)
        assert len(lines) == 1
        assert lines[0].startswith("ingest on one CPU: the offset from the front half failed "
                                   "(OffsetEstimationError('sample of ")

    def test_failed_copy(self, ingest, split_inputs, caplog):
        """A gzip stream cut short: the copy fails, then the serial read."""
        _, trace = split_inputs
        with split_traces(), pytest.raises(IngestError):
            ingest(trace, "traces.csv.gz", data=gzip.compress(trace)[:-100])
        lines = debug_lines(caplog)
        assert len(lines) == 1
        assert lines[0].startswith("ingest on one CPU: the gzip copy failed (EOFError(")

    def test_failed_split(self, ingest, split_inputs):
        with split_traces(strict=False), child_fails("raise"):
            assert ingest(split_inputs[1]) == ["ingest on one CPU: the split failed"]
