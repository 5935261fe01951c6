import contextlib
import gzip
import json
import os
import pathlib
import shutil
import signal
from unittest import mock

import pytest

from tracepattern import matching, parallel, pipeline
from tracepattern.errors import DataQualityError
from tracepattern.ingest import DEFAULT_CHUNK_SIZE
from tracepattern.pipeline import STAGES, RunConfig, run_pipeline
from tracepattern.synth import Scenario, generate, uniform_profile, write_scenario

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
    """Split every plain trace file, whatever its size, as on a machine with
    the CPUs ``cpus``; yields the mock that counts the forks. With
    ``strict``, a fall back to the serial path fails the test."""
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


def split_equals_serial(trace, net_path, tmp_path, forks=1, cpus=(0, 1), strict=True,
                        name="traces.csv", **settings):
    """Write ``trace`` and run it serially and then split, into the same
    ``out_dir``; asserts the same error, stats and bytes, and ``forks``
    forks. Returns the serial outcome."""
    path = tmp_path / name
    if name.endswith(".gz"):
        path.write_bytes(gzip.compress(trace))
    else:
        path.write_bytes(trace)
    config = RunConfig(traces_path=str(path), network_path=net_path,
                       out_dir=str(tmp_path / "out"), **settings)
    serial = outcome(config)
    with split_traces(strict, cpus) as fork:
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


def with_lines(trace, edits):
    """``trace`` with each line ``i`` replaced by ``edit(line)`` for ``i,
    edit`` in ``edits``."""
    lines = trace.splitlines(keepends=True)
    for i, edit in edits:
        lines[i] = edit(lines[i])
    return b"".join(lines)


class TestSplitEqualsSerial:
    """A trace file parsed and matched by this process and a forked child
    gives the serial outputs, manifest included, with no fall back."""

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

    def test_explicit_offset(self, split_inputs, tmp_path):
        net_path, trace = split_inputs
        error, _, files = split_equals_serial(trace, net_path, tmp_path,
                                              offset=(-0.0004, 0.0003))
        assert error is None
        assert json.loads(files["manifest.json"])["offset"]["source"] == "explicit"


class TestSplitFallsBack:
    """Whatever makes the split path give up, the outcome is the serial
    one: outputs, counts, error samples and error text."""

    def test_malformed_first_line_of_the_back_half(self, split_inputs, tmp_path):
        """Counted as skipped, as the serial path does, not taken for a header."""
        net_path, trace = split_inputs
        trace = with_lines(trace, [(split_line(trace), break_timestamp)])
        error, (stats,), _ = split_equals_serial(trace, net_path, tmp_path, strict=False,
                                                 chunk_size=7)
        assert error is None
        assert stats.parse_errors == 1 and stats.skipped == 1

    def test_rejected_row_deep_in_the_back_half(self, split_inputs, tmp_path):
        net_path, trace = split_inputs
        n = trace.count(b"\n")
        trace = with_lines(trace, [(n * 3 // 4, break_timestamp)])
        error, (stats,), _ = split_equals_serial(trace, net_path, tmp_path, strict=False)
        assert error is None
        assert len(stats.samples) == 1
        assert stats.samples[0].startswith(f"row {n * 3 // 4 + 1}: malformed numeric field")

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

    def test_rows_rejected_before_the_first_rate_check(self, split_inputs, tmp_path):
        """A front half of fewer than 1,000 rows with 20 broken ones: only
        the serial path checks the rate once 1,000 rows are read."""
        net_path, trace = split_inputs
        trace = b"".join(trace.splitlines(keepends=True)[:1801])
        trace = with_lines(trace, [(i, break_timestamp) for i in range(100, 120)])
        error, _, _ = split_equals_serial(trace, net_path, tmp_path, strict=False,
                                          chunk_size=7, offset=(-0.0004, 0.0003))
        assert error[0] is DataQualityError

    @pytest.mark.parametrize("where", [0.25, 0.75], ids=["front", "back"])
    def test_quote_in_either_half(self, where, split_inputs, tmp_path):
        net_path, trace = split_inputs
        i = int(trace.count(b"\n") * where)
        trace = with_lines(trace, [(i, quote_order_id)])
        assert trace.count(b'"') == 2
        error, _, _ = split_equals_serial(trace, net_path, tmp_path, forks=0)
        assert error is None

    def test_gzip_input(self, split_inputs, tmp_path):
        net_path, trace = split_inputs
        split_equals_serial(trace, net_path, tmp_path, forks=0, name="traces.csv.gz")

    def test_one_cpu(self, split_inputs, tmp_path):
        net_path, trace = split_inputs
        split_equals_serial(trace, net_path, tmp_path, forks=0, cpus=(0,))

    @pytest.mark.parametrize("how", ["raise", "kill"])
    def test_failed_child(self, how, split_inputs, tmp_path):
        """A child that exits 1 or is killed."""
        net_path, trace = split_inputs
        parent, real = os.getpid(), matching.match_batch

        def fails_in_child(*args):
            if os.getpid() != parent:
                if how == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise RuntimeError("the child fails")
            return real(*args)

        with mock.patch.object(matching, "match_batch", fails_in_child):
            split_equals_serial(trace, net_path, tmp_path, strict=False)

    def test_offset_sample_larger_than_the_front_half(self, split_inputs, tmp_path):
        net_path, trace = split_inputs
        assert split_line(trace) < 4000 < trace.count(b"\n")
        error, _, _ = split_equals_serial(trace, net_path, tmp_path, forks=0,
                                          offset_sample_size=4000)
        assert error is None
