import gzip
import json
import os
import warnings
from xml.dom import minidom

import numpy as np
import pytest
from click.testing import CliRunner

from tracepattern import export as ex
from tracepattern import patterns
from tracepattern.cli import _build_run_config, main
from tracepattern.errors import ConfigError
from tracepattern.synth import (Scenario, generate, uniform_profile,
                                write_scenario)

from conftest import assert_no_child, split_jobs


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A 3-day scenario on disk plus one completed pipeline run."""
    root = tmp_path_factory.mktemp("cli")
    # demand dense enough that every road clears the missing-value filter
    scenario = Scenario(seed=21, grid_rows=3, grid_cols=3,
                        demand_profile=uniform_profile(24), n_days=3)
    gen = generate(scenario)
    net_path, trace_path = write_scenario(gen, str(root / "data"))
    out_dir = str(root / "run")
    result = CliRunner().invoke(main, [
        "estimate", "--traces", trace_path, "--network", net_path,
        "--out", out_dir,
    ])
    assert result.exit_code == 0, result.output
    return {"root": root, "gen": gen, "net": net_path, "traces": trace_path,
            "out": out_dir}


@pytest.mark.parametrize("args, named", [
    (["estimate", "--tz-offset", "3600.5"], "'--tz-offset'"),
    (["estimate", "--offset", "1"], "'--offset'"),
    (["estimate", "--bogus"], "--bogus"),
    (["--bogus", "estimate"], "--bogus"),
    (["bogus"], "'bogus'"),
    ([], "command"),
], ids=["not-an-integer", "one-of-two-values", "unknown-option", "unknown-group-option",
        "unknown-command", "no-command"])
def test_usage_error_exit_1_one_line(runner, args, named):
    """click's own usage errors keep the exit-code contract: exit 1 and one
    ``error:`` line, no usage text."""
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert named in result.stderr and result.stdout == ""


def test_main_returns_without_standalone_mode(workspace):
    """Called as a function, a good command returns and a failed one still
    exits with its code."""
    args = ["offset", "--traces", workspace["traces"], "--network", workspace["net"]]
    assert main(args, prog_name="tracepattern", standalone_mode=False) is None
    with pytest.raises(SystemExit) as exc:
        main([*args, "--sample-size", "0"], prog_name="tracepattern", standalone_mode=False)
    assert exc.value.code == 1


class TestEstimate:
    def test_outputs_written(self, workspace):
        for name in ("flow.csv", "speed_raw.csv", "speed_clean.csv", "inrix.csv",
                     "network_series.csv", "daily.csv", "fitting.json",
                     "manifest.json"):
            assert os.path.exists(os.path.join(workspace["out"], name)), name

    def test_manifest_count_conservation(self, workspace):
        with open(os.path.join(workspace["out"], "manifest.json")) as fh:
            manifest = json.load(fh)
        c = manifest["counts"]
        assert c["rows_total"] == c["parsed"] + c["skipped_rows"]
        assert c["parsed"] == c["matched"] + c["unmatched"] + c["offset_skipped"]
        assert c["matched"] == workspace["gen"].truth.n_pings
        assert manifest["offset"]["source"] == "estimated"

    def test_digests_match_files(self, workspace):
        with open(os.path.join(workspace["out"], "manifest.json")) as fh:
            manifest = json.load(fh)
        for name, digest in manifest["digests"].items():
            assert ex.sha256_file(os.path.join(workspace["out"], name)) == digest

    def test_missing_network_exit_1(self, runner, workspace, tmp_path):
        result = runner.invoke(main, [
            "estimate", "--traces", workspace["traces"],
            "--network", str(tmp_path / "nope.geojson"), "--out", str(tmp_path)])
        assert result.exit_code == 1

    def test_missing_required_setting_exit_1(self, runner):
        result = runner.invoke(main, ["estimate", "--traces", "x.csv"])
        assert result.exit_code == 1

    def test_error_rate_abort_exit_2(self, runner, workspace, tmp_path):
        good = workspace["gen"].trace_csv.splitlines()[1:1101]
        text = "\n".join(good + ["garbage,row"] * 200) + "\n"
        bad_path = tmp_path / "bad.csv"
        bad_path.write_text(text)
        result = runner.invoke(main, [
            "estimate", "--traces", str(bad_path), "--network", workspace["net"],
            "--out", str(tmp_path / "out"), "--offset", "0", "0"])
        assert result.exit_code == 2

    def test_truncated_gzip_exit_1_one_line(self, runner, workspace, tmp_path):
        with open(workspace["traces"], "rb") as fh:
            data = gzip.compress(fh.read())
        bad_path = tmp_path / "traces.csv.gz"
        bad_path.write_bytes(data[:len(data) // 2])
        result = runner.invoke(main, [
            "estimate", "--traces", str(bad_path), "--network", workspace["net"],
            "--out", str(tmp_path / "out"), "--offset", "0", "0"])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: read failure")
        assert result.stderr.count("\n") == 1

    def test_sort_key_past_its_bound_exit_1_one_line(self, runner, workspace, tmp_path,
                                                     monkeypatch):
        monkeypatch.setattr(patterns, "_KEY_LIMIT", 1000)  # no real run gets near 2**63
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "estimate", "--traces", workspace["traces"], "--network", workspace["net"],
            "--out", str(out), "--offset", "0", "0"])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert "past the largest int64 key 999\n" in result.stderr
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failed_stage"] == "build_tensors"

    def test_f2_overflow_exit_1_one_line(self, runner, workspace, tmp_path, monkeypatch):
        finalize = patterns.TensorBuilder.finalize

        def huge_flow(builder):
            flow, speed = finalize(builder)
            return patterns.SpatioTemporalMatrix(flow.road_ids, flow.intervals,
                                                 flow.values * 1e200), speed

        monkeypatch.setattr(patterns.TensorBuilder, "finalize", huge_flow)
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "estimate", "--traces", workspace["traces"], "--network", workspace["net"],
            "--out", str(out), "--offset", "0", "0"])
        assert result.exit_code == 1
        assert result.stderr == ("error: f2 of the cf series of date group 'weekend' is not "
                                 "finite: its squares overflow float64\n")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failed_stage"] == "analyze"
        assert sorted(os.listdir(out)) == ["manifest.json"]

    def test_timestamp_past_year_9999_is_a_skipped_row(self, runner, workspace, tmp_path):
        lines = workspace["gen"].trace_csv.splitlines()
        lines.insert(5, "d9,o9,99999999999999,104.06,30.65")
        path = tmp_path / "traces.csv"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "estimate", "--traces", str(path), "--network", workspace["net"],
            "--out", str(out), "--offset", "0", "0"])
        assert result.exit_code == 0, result.output
        with open(out / "manifest.json") as fh:
            assert json.load(fh)["counts"]["skipped_rows"] == 1

    def test_tz_offset_of_a_day_exit_1(self, runner, workspace, tmp_path):
        result = runner.invoke(main, [
            "estimate", "--traces", workspace["traces"], "--network", workspace["net"],
            "--out", str(tmp_path / "out"), "--tz-offset", str(10 ** 12)])
        assert result.exit_code == 1
        assert result.stderr == "error: tz_offset_s must be less than one day in magnitude\n"

    @pytest.mark.parametrize("flag, value", [
        ("--max-dist-km", "nan"), ("--max-dist-km", "inf"), ("--pair-dt-max", "nan"),
    ])
    def test_non_finite_setting_exit_1_one_line(self, runner, workspace, tmp_path,
                                                flag, value):
        result = runner.invoke(main, [
            "estimate", "--traces", workspace["traces"], "--network", workspace["net"],
            "--out", str(tmp_path / "out"), flag, value])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert flag[2:].replace("-", "_") in result.stderr

    def test_config_file_with_flag_precedence(self, runner, workspace, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"traces_path: {workspace['traces']}\n"
                       f"network_path: {workspace['net']}\n"
                       f"out_dir: {tmp_path / 'from_yaml'}\n"
                       "chunk_size: 5000\n")
        out = str(tmp_path / "from_flag")
        result = runner.invoke(main, ["estimate", "--config", str(cfg),
                                      "--out", out])
        assert result.exit_code == 0, result.output
        assert os.path.exists(os.path.join(out, "manifest.json"))
        assert not os.path.exists(str(tmp_path / "from_yaml"))

    @pytest.mark.parametrize("line", ["max_dist_km: abc", "chunk_size: 2.5",
                                      "chunk_size: true", "anomaly_kmh: [1]",
                                      "tz_offset_s: 3600.5", "missing_fraction: x",
                                      "offset_sample_size: abc"])
    def test_setting_of_wrong_type_is_config_error(self, workspace, tmp_path, line):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"traces_path: {workspace['traces']}\n"
                       f"network_path: {workspace['net']}\n"
                       f"out_dir: {tmp_path / 'o'}\n{line}\n")
        config = _build_run_config(str(cfg), {})
        with pytest.raises(ConfigError, match=line.split(":")[0]):
            config.validate()

    def test_non_numeric_setting_exit_1_one_line(self, runner, workspace, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"traces_path: {workspace['traces']}\n"
                       f"network_path: {workspace['net']}\n"
                       f"out_dir: {tmp_path / 'o'}\n"
                       "max_dist_km: abc\n")
        result = runner.invoke(main, ["estimate", "--config", str(cfg)])
        assert result.exit_code == 1
        assert result.stderr == "error: max_dist_km must be a number, not 'abc'\n"

    @pytest.mark.parametrize("line", [
        "offset: [1]", "offset: [0.001, abc]", "offset: [.nan, 0.0]", "offset: ab",
        "date_groups: 5", "date_groups: {weekday: 5}", "date_groups: null",
        "date_groups: {weekday: [2016-10-03]}", "date_groups: {weekday: ['2016-13-01']}",
    ])
    def test_malformed_offset_or_date_groups_exit_1_one_line(self, runner, workspace,
                                                             tmp_path, line):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"traces_path: {workspace['traces']}\n"
                       f"network_path: {workspace['net']}\n"
                       f"out_dir: {tmp_path / 'o'}\n{line}\n")
        result = runner.invoke(main, ["estimate", "--config", str(cfg)])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert line.split(":")[0] in result.stderr

    def test_zero_offset_sample_size_exit_1_one_line(self, runner, workspace, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"traces_path: {workspace['traces']}\n"
                       f"network_path: {workspace['net']}\n"
                       f"out_dir: {tmp_path / 'o'}\n"
                       "offset_sample_size: 0\n")
        result = runner.invoke(main, ["estimate", "--config", str(cfg)])
        assert result.exit_code == 1
        assert result.stderr == "error: offset_sample_size must be positive and finite\n"
        assert not os.path.exists(tmp_path / "o")

    def test_unknown_config_key_exit_1(self, runner, workspace, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"traces_path: {workspace['traces']}\n"
                       f"network_path: {workspace['net']}\n"
                       f"out_dir: {tmp_path / 'o'}\n"
                       "typo_key: 1\n")
        assert runner.invoke(main, ["estimate", "--config", str(cfg)]).exit_code == 1

    @pytest.mark.parametrize("command", ["estimate", "analyze", "timeseries", "synth"])
    @pytest.mark.parametrize("text, message", [
        (b"traces_path: [unclosed\n",
         ", line 2, column 1: expected ',' or ']', but got '<stream end>'\n"),
        (b"traces_path: caf\xe9\n",
         ": 'utf-8' codec can't decode byte 0xe9 in position 16: invalid continuation byte\n"),
    ], ids=["yaml-syntax-error", "not-utf8"])
    def test_unreadable_config_file_exit_1_one_line(self, runner, workspace, tmp_path,
                                                    command, text, message):
        """Every command that takes --config reads it through one function."""
        cfg = tmp_path / "run.yaml"
        cfg.write_bytes(text)
        out, new = workspace["out"], str(tmp_path / "o")
        args = {"estimate": [],
                "analyze": ["--flow", os.path.join(out, "flow.csv"),
                            "--speed", os.path.join(out, "speed_raw.csv"),
                            "--network", workspace["net"], "--out", new],
                "timeseries": ["--series", os.path.join(out, "network_series.csv"),
                               "--scenario", "weekday", "--out-dir", new],
                "synth": ["--out", new]}[command]
        result = runner.invoke(main, [command, "--config", str(cfg), *args])
        assert result.exit_code == 1
        assert result.stderr == f"error: config file {cfg}{message}"
        assert not os.path.exists(new)


def _strict_json(path):
    """The JSON document at ``path``, parsed with NaN and Infinity refused."""
    def no_constant(name):
        raise ValueError(f"{name} is not JSON")

    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=no_constant)


def test_every_json_output_is_strict(runner, workspace, tmp_path):
    """estimate's JSON files, sidecars included, and heatmap layers, one of
    a matrix with NaN and infinite cells, parse as strict JSON."""
    written = [os.path.join(workspace["out"], name)
               for name in sorted(os.listdir(workspace["out"])) if name.endswith(".json")]
    assert len(written) == 6  # fitting, manifest and four matrix sidecars
    inrix = ex.read_matrix_csv(os.path.join(workspace["out"], "inrix.csv"))
    inrix.values[:3, 40] = [np.nan, np.inf, -np.inf]
    ex.write_matrix_csv(inrix, tmp_path / "odd.csv")
    for matrix in (os.path.join(workspace["out"], "flow.csv"), str(tmp_path / "odd.csv")):
        out_path = str(tmp_path / (os.path.basename(matrix) + ".geojson"))
        result = runner.invoke(main, [
            "heatmap", "--matrix", matrix, "--network", workspace["net"],
            "--interval", inrix.intervals[40].label(), "--out", out_path])
        assert result.exit_code == 0, result.output
        written.append(out_path)
    for path in written:
        _strict_json(path)


class TestOffset:
    def test_prints_near_zero_for_clean_traces(self, runner, workspace):
        result = runner.invoke(main, ["offset", "--traces", workspace["traces"],
                                      "--network", workspace["net"]])
        assert result.exit_code == 0, result.output
        dlat, dlon = map(float, result.output.split())
        assert abs(dlat) < 1e-5 and abs(dlon) < 1e-5

    def test_recovers_injected_shift(self, runner, tmp_path):
        scenario = Scenario(seed=22, demand_profile=uniform_profile(2),
                            injected_offset=(0.002, -0.002))
        net_path, trace_path = write_scenario(generate(scenario), str(tmp_path))
        result = runner.invoke(main, ["offset", "--traces", trace_path,
                                      "--network", net_path])
        assert result.exit_code == 0, result.output
        dlat, dlon = map(float, result.output.split())
        assert dlat == pytest.approx(-0.002, rel=0.1)
        assert dlon == pytest.approx(0.002, rel=0.1)

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_non_positive_sample_size_exit_1_one_line(self, runner, workspace, size):
        result = runner.invoke(main, ["offset", "--traces", workspace["traces"],
                                      "--network", workspace["net"], "--sample-size", size])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == "error: offset_sample_size must be positive and finite\n"


class TestAnalyze:
    def test_from_saved_matrices(self, runner, workspace, tmp_path):
        out = str(tmp_path / "analysis")
        result = runner.invoke(main, [
            "analyze", "--flow", os.path.join(workspace["out"], "flow.csv"),
            "--speed", os.path.join(workspace["out"], "speed_raw.csv"),
            "--network", workspace["net"], "--out", out])
        assert result.exit_code == 0, result.output
        for name in ("inrix.csv", "network_series.csv", "daily.csv", "fitting.json"):
            assert os.path.exists(os.path.join(out, name)), name
        # same inputs as the pipeline run, so same congestion matrix
        a = ex.read_matrix_csv(os.path.join(out, "inrix.csv"))
        b = ex.read_matrix_csv(os.path.join(workspace["out"], "inrix.csv"))
        np.testing.assert_array_equal(np.nan_to_num(a.values, nan=-1),
                                      np.nan_to_num(b.values, nan=-1))
        for name in ("inrix.csv", "network_series.csv", "daily.csv", "fitting.json"):
            with open(os.path.join(out, name), "rb") as fa, \
                    open(os.path.join(workspace["out"], name), "rb") as fb:
                assert fa.read() == fb.read(), name
        assert not os.path.exists(os.path.join(out, "inrix.csv.meta.json"))

    @pytest.fixture(scope="class")
    def configured_run(self, workspace, tmp_path_factory):
        """(out dir, flags) of an estimate run given date groups in a config
        file and two thresholds that are not the defaults."""
        root = tmp_path_factory.mktemp("configured")
        cfg = root / "run.yaml"
        cfg.write_text("date_groups:\n  ends: ['2016-10-01', '2016-10-03']\n"
                       "  middle: ['2016-10-02']\n")
        flags = ["--config", str(cfg), "--anomaly-kmh", "36", "--missing-fraction", "0.1"]
        out = root / "run"
        result = CliRunner().invoke(main, [
            "estimate", "--traces", workspace["traces"], "--network", workspace["net"],
            "--out", str(out), *flags])
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / "manifest.json").read_text())
        # each setting shows: anomalies repaired, some roads dropped, and
        # the config's groups in place of weekday and weekend
        assert manifest["anomaly_count"] > 0
        roads = ex.read_matrix_csv(str(out / "flow.csv")).road_ids
        assert 0 < len(manifest["dropped_road_ids"]) < len(roads)
        assert list(json.loads((out / "fitting.json").read_text())) == ["ends"]
        return out, flags

    @pytest.mark.parametrize("cpus", [(0, 1), (0,)], ids=["two-cpus", "one-cpu"])
    def test_reproduces_a_configured_estimate(self, runner, workspace, configured_run,
                                              tmp_path, cpus):
        run, flags = configured_run
        out = tmp_path / "analysis"
        with split_jobs(strict=len(cpus) == 2, cpus=cpus) as fork:
            result = runner.invoke(main, [
                "analyze", "--flow", str(run / "flow.csv"), "--speed", str(run / "speed_raw.csv"),
                "--network", workspace["net"], "--out", str(out), *flags])
        assert result.exit_code == 0, result.output
        assert fork.called == (len(cpus) == 2)
        assert_no_child()
        for name in ("inrix.csv", "network_series.csv", "daily.csv", "fitting.json"):
            assert (out / name).read_bytes() == (run / name).read_bytes(), name

    @pytest.mark.parametrize("flag, value", [
        ("--missing-fraction", "2"), ("--anomaly-kmh", "-5"), ("--anomaly-kmh", "0"),
        ("--anomaly-kmh", "nan"),
    ])
    def test_bad_threshold_exit_1_one_line(self, runner, workspace, tmp_path, flag, value):
        result = runner.invoke(main, [
            "analyze", "--flow", os.path.join(workspace["out"], "flow.csv"),
            "--speed", os.path.join(workspace["out"], "speed_raw.csv"),
            "--network", workspace["net"], "--out", str(tmp_path / "a"), flag, value])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert flag[2:].replace("-", "_") in result.stderr

    @pytest.mark.parametrize("line", [
        "date_groups: 5", "date_groups: {weekday: 5}", "date_groups: [2016-10-03]",
        "date_groups: {weekday: [2016-10-03]}", "date_groups: {1: ['2016-10-03']}",
        "date_groups: {a: ['2016-10-03'], b: ['20161003']}",
    ])
    def test_malformed_date_groups_exit_1_one_line(self, runner, workspace, tmp_path, line):
        cfg = tmp_path / "analyze.yaml"
        cfg.write_text(line + "\n")
        result = runner.invoke(main, [
            "analyze", "--flow", os.path.join(workspace["out"], "flow.csv"),
            "--speed", os.path.join(workspace["out"], "speed_raw.csv"),
            "--network", workspace["net"], "--out", str(tmp_path / "a"),
            "--config", str(cfg)])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert "date" in result.stderr

    @pytest.mark.parametrize("cells, reason", [
        (lambda cells: [cells[0], "x", *cells[2:]], "line 3, field 2: 'x' is not float64"),
        (lambda cells: cells[:-1], "line 3: expected"),
        (lambda cells: [cells[0], "", *cells[2:]], "line 3, field 2 is empty"),
        (lambda cells: [cells[0], "1 2", *cells[2:]], "line 3, field 2: '1 2' is not float64"),
        (lambda cells: [str(2**63), *cells[1:]], "line 3: not an int64 road id"),
    ], ids=["bad-cell", "short-row", "empty-cell", "spaced-cell", "id-overflow"])
    def test_bad_matrix_line_named_by_file_line(self, runner, workspace, tmp_path,
                                                cells, reason):
        with open(os.path.join(workspace["out"], "flow.csv"), newline="") as fh:
            lines = fh.readlines()
        lines[2] = ",".join(cells(lines[2].rstrip("\r\n").split(","))) + "\r\n"
        bad = tmp_path / "flow.csv"
        bad.write_text("".join(lines), newline="")
        result = runner.invoke(main, [
            "analyze", "--flow", str(bad),
            "--speed", os.path.join(workspace["out"], "speed_raw.csv"),
            "--network", workspace["net"], "--out", str(tmp_path / "a")])
        assert result.exit_code == 1
        assert result.stderr.startswith(f"error: {bad} {reason}")
        assert result.stderr.count("\n") == 1 and "usecols" not in result.stderr

    def test_interval_axes_differ_exit_1_one_line(self, runner, workspace, tmp_path):
        with open(os.path.join(workspace["out"], "flow.csv"), newline="") as fh:
            lines = [line.rstrip("\r\n").rsplit(",", 1)[0] + "\r\n" for line in fh]
        short = tmp_path / "flow.csv"  # without its last interval
        short.write_text("".join(lines), newline="")
        result = runner.invoke(main, [
            "analyze", "--flow", str(short),
            "--speed", os.path.join(workspace["out"], "speed_raw.csv"),
            "--network", workspace["net"], "--out", str(tmp_path / "a")])
        assert result.exit_code == 1
        assert result.stderr == ("error: the flow and speed matrices have different "
                                 "interval axes\n")

    def test_road_not_in_network_exit_1_one_line(self, runner, workspace, tmp_path):
        scored = ex.read_matrix_csv(os.path.join(workspace["out"], "inrix.csv")).road_ids
        with open(os.path.join(workspace["out"], "speed_raw.csv"), newline="") as fh:
            lines = fh.readlines()
        row = next(i for i, line in enumerate(lines) if line.startswith(f"{scored[0]},"))
        lines[row] = "999999" + lines[row][len(str(scored[0])):]
        speed = tmp_path / "speed_raw.csv"
        speed.write_text("".join(lines), newline="")
        result = runner.invoke(main, [
            "analyze", "--flow", os.path.join(workspace["out"], "flow.csv"),
            "--speed", str(speed), "--network", workspace["net"],
            "--out", str(tmp_path / "a")])
        assert result.exit_code == 1
        assert result.stderr == "error: road 999999 of the matrix is not in the network\n"

    def test_flow_road_not_in_network_exit_1_one_line(self, runner, workspace, tmp_path):
        with open(os.path.join(workspace["out"], "flow.csv"), newline="") as fh:
            lines = fh.readlines()
        road = lines[-1].split(",", 1)[0]
        lines[-1] = "999999" + lines[-1][len(road):]
        flow = tmp_path / "flow.csv"
        flow.write_text("".join(lines), newline="")
        result = runner.invoke(main, [
            "analyze", "--flow", str(flow),
            "--speed", os.path.join(workspace["out"], "speed_raw.csv"),
            "--network", workspace["net"], "--out", str(tmp_path / "a")])
        assert result.exit_code == 1
        assert result.stderr == "error: road 999999 of the flow matrix is not in the network\n"

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "-1", "2.5"])
    def test_flow_cell_not_a_count_exit_1_one_line(self, runner, workspace, tmp_path, cell):
        with open(os.path.join(workspace["out"], "flow.csv"), newline="") as fh:
            lines = fh.readlines()
        label = lines[0].rstrip("\r\n").split(",")[3]
        cells = lines[2].rstrip("\r\n").split(",")
        cells[3] = cell
        lines[2] = ",".join(cells) + "\r\n"
        flow = tmp_path / "flow.csv"
        flow.write_text("".join(lines), newline="")
        result = runner.invoke(main, [
            "analyze", "--flow", str(flow),
            "--speed", os.path.join(workspace["out"], "speed_raw.csv"),
            "--network", workspace["net"], "--out", str(tmp_path / "a")])
        assert result.exit_code == 1
        assert result.stderr == (f"error: road {cells[0]} of the flow matrix has flow "
                                 f"{float(cell)} at {label}, not a finite count >= 0\n")

    def test_f2_overflow_exit_1_one_line(self, runner, workspace, tmp_path):
        """Flow counts times 1e200 are finite, but their squared deviations
        overflow, so f2 would be inf / inf = NaN."""
        flow = ex.read_matrix_csv(os.path.join(workspace["out"], "flow.csv"))
        flow.values *= 1e200
        ex.write_matrix_csv(flow, tmp_path / "flow.csv")
        out = tmp_path / "a"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning on stderr either
            result = runner.invoke(main, [
                "analyze", "--flow", str(tmp_path / "flow.csv"),
                "--speed", os.path.join(workspace["out"], "speed_raw.csv"),
                "--network", workspace["net"], "--out", str(out)])
        assert result.exit_code == 1
        assert result.stderr == ("error: f2 of the cf series of date group 'weekend' is not "
                                 "finite: its squares overflow float64\n")
        assert not (out / "fitting.json").exists()

    def test_unknown_config_key_exit_1_one_line(self, runner, workspace, tmp_path):
        cfg = tmp_path / "analyze.yaml"
        cfg.write_text("missing_fraciton: 0.9\n")
        result = runner.invoke(main, [
            "analyze", "--flow", os.path.join(workspace["out"], "flow.csv"),
            "--speed", os.path.join(workspace["out"], "speed_raw.csv"),
            "--network", workspace["net"], "--out", str(tmp_path / "a"),
            "--config", str(cfg)])
        assert result.exit_code == 1
        assert result.stderr == "error: unknown config keys: ['missing_fraciton']\n"
        assert not os.path.exists(tmp_path / "a")


class TestHeatmap:
    def test_feature_count_and_ratio(self, runner, workspace, tmp_path):
        out_path = str(tmp_path / "heat.geojson")
        result = runner.invoke(main, [
            "heatmap", "--matrix", os.path.join(workspace["out"], "flow.csv"),
            "--network", workspace["net"], "--interval", "2016-10-01T12:00",
            "--out", out_path])
        assert result.exit_code == 0, result.output
        with open(out_path) as fh:
            doc = json.load(fh)
        n_roads = len(workspace["gen"].network_doc["features"])
        assert len(doc["features"]) == n_roads
        ratios = [f["properties"]["ratio"] for f in doc["features"]]
        assert all(0.0 <= r <= 1.0 for r in ratios)
        # ratio is against the matrix-wide max, so a single interval
        # need not contain it; values scale back via max_value
        mx = doc["properties"]["max_value"]
        for f in doc["features"]:
            assert f["properties"]["value"] == pytest.approx(
                f["properties"]["ratio"] * mx)

    def test_unknown_interval_exit_1(self, runner, workspace, tmp_path):
        result = runner.invoke(main, [
            "heatmap", "--matrix", os.path.join(workspace["out"], "flow.csv"),
            "--network", workspace["net"], "--interval", "1999-01-01T00:00",
            "--out", str(tmp_path / "x.geojson")])
        assert result.exit_code == 1

    def test_road_not_in_network_exit_1_one_line(self, runner, workspace, tmp_path):
        with open(os.path.join(workspace["out"], "flow.csv"), newline="") as fh:
            rows = fh.read().split("\r\n")
        path = tmp_path / "flow.csv"
        path.write_text("\r\n".join(_with_id(rows, 999999)), newline="")
        result = runner.invoke(main, [
            "heatmap", "--matrix", str(path), "--network", workspace["net"],
            "--interval", "2016-10-01T12:00", "--out", str(tmp_path / "x.geojson")])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert "999999" in result.stderr

    def test_nan_cell_is_null_in_strict_json(self, runner, workspace, tmp_path):
        a, b = (f["properties"]["id"] for f in workspace["gen"].network_doc["features"][:2])
        path = tmp_path / "m.csv"
        path.write_text(f"road_id,2016-10-01T00:00,2016-10-01T00:15\r\n"
                        f"{a},1.0,nan\r\n{b},4.0,2.0\r\n", newline="")
        out_path = tmp_path / "heat.geojson"
        result = runner.invoke(main, [
            "heatmap", "--matrix", str(path), "--network", workspace["net"],
            "--interval", "2016-10-01T00:15", "--out", str(out_path)])
        assert result.exit_code == 0, result.output
        doc = _strict_json(out_path)
        assert doc["properties"]["max_value"] == 4.0
        props = {f["properties"]["road_id"]: f["properties"] for f in doc["features"]}
        assert props[a] == {"road_id": a, "value": None, "ratio": None}
        assert props[b] == {"road_id": b, "value": 2.0, "ratio": 0.5}


def _header(rows, *cols):
    """The header of ``rows`` with the labels of its interval columns ``cols``."""
    labels = rows[0].split(",")[1:]
    return ",".join(["road_id", *(labels[c] for c in cols), *labels[len(cols):]])


def _with_id(rows, rid):
    return rows[:1] + [f"{rid},{rows[1].split(',', 1)[1]}"] + rows[2:]


class TestMalformedMatrix:
    """A malformed matrix CSV stops analyze/heatmap with one ``error:`` line."""

    @pytest.mark.parametrize("edit", [
        lambda rows: rows[:1] + [rows[1].rsplit(",", 1)[0] + ",x"] + rows[2:],
        lambda rows: rows[:1] + [rows[1].rsplit(",", 1)[0]] + rows[2:],
        lambda rows: [rows[0].replace("T00:15", "T0015")] + rows[1:],
        lambda rows: _with_id(rows, 2**63),
        lambda rows: _with_id(rows, "1.5"),
        lambda rows: _with_id(rows, "\udcff"),
        lambda rows: [_header(rows, 0, 2, 1)] + rows[1:],
        lambda rows: [_header(rows, 0, 1, 1)] + rows[1:],
        lambda rows: rows[:2] + rows[1:],
    ], ids=["cell_x", "short_row", "bad_label", "id_past_int64", "float_id", "not_utf8",
            "labels_swapped", "label_repeated", "road_repeated"])
    @pytest.mark.parametrize("command", ["heatmap", "analyze"])
    def test_exit_1_one_line(self, runner, workspace, tmp_path, edit, command):
        flow = os.path.join(workspace["out"], "flow.csv")
        with open(flow, newline="") as fh:
            rows = fh.read().split("\r\n")
        path = tmp_path / "bad.csv"
        path.write_bytes("\r\n".join(edit(rows)).encode("utf-8", "surrogateescape"))
        args = {"heatmap": ["heatmap", "--matrix", str(path), "--network", workspace["net"],
                            "--interval", "2016-10-01T12:00",
                            "--out", str(tmp_path / "x.geojson")],
                "analyze": ["analyze", "--flow", flow, "--speed", str(path),
                            "--network", workspace["net"], "--out", str(tmp_path / "a")]}
        result = runner.invoke(main, args[command])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert str(path) in result.stderr


class TestTimeseries:
    def test_weekend_overlay(self, runner, workspace, tmp_path):
        # 2016-10-01/02 are Saturday/Sunday -> the weekend group has 2 days
        out = str(tmp_path / "ts")
        result = runner.invoke(main, [
            "timeseries", "--series",
            os.path.join(workspace["out"], "network_series.csv"),
            "--scenario", "weekend", "--out-dir", out])
        assert result.exit_code == 0, result.output
        csv_path = os.path.join(out, "timeseries_weekend_dc.csv")
        with open(csv_path) as fh:
            rows = fh.read().splitlines()
        assert len(rows) == 1 + 2 * 96
        assert os.path.exists(os.path.join(out, "timeseries_weekend_dc.svg"))

    def test_svg_rerun_byte_identical(self, runner, workspace, tmp_path):
        args = ["timeseries", "--series",
                os.path.join(workspace["out"], "network_series.csv"),
                "--scenario", "weekend", "--measure", "cf"]
        blobs = []
        for sub in ("a", "b"):
            out = str(tmp_path / sub)
            assert runner.invoke(main, args + ["--out-dir", out]).exit_code == 0
            with open(os.path.join(out, "timeseries_weekend_cf.svg"), "rb") as fh:
                blobs.append(fh.read())
        assert blobs[0] == blobs[1]

    def test_normalized_values_in_unit_range(self, runner, workspace, tmp_path):
        out = str(tmp_path / "norm")
        result = runner.invoke(main, [
            "timeseries", "--series",
            os.path.join(workspace["out"], "network_series.csv"),
            "--scenario", "weekend", "--measure", "cf", "--normalize",
            "--out-dir", out])
        assert result.exit_code == 0, result.output
        import csv
        with open(os.path.join(out, "timeseries_weekend_cf_norm.csv")) as fh:
            values = [float(r["value"]) for r in csv.DictReader(fh)]
        assert min(values) == 0.0 and max(values) == 1.0

    def test_normalize_keeps_a_day_with_an_empty_cell(self, runner, workspace, tmp_path):
        with open(os.path.join(workspace["out"], "network_series.csv"), newline="") as fh:
            rows = fh.read().splitlines()
        # interval,network_inrix,cf_total; empty one score of 2016-10-01
        label, _, cf = rows[1 + 40].split(",")
        rows[1 + 40] = f"{label},,{cf}"
        path = tmp_path / "series.csv"
        path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "norm"
        result = runner.invoke(main, ["timeseries", "--series", str(path),
                                      "--scenario", "weekend", "--normalize",
                                      "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        import csv
        with open(path) as fh:
            empty = {(r["interval"][:10], int(r["interval"][11:13]) * 4
                      + int(r["interval"][14:16]) // 15)
                     for r in csv.DictReader(fh) if not r["network_inrix"]}
        with open(out / "timeseries_weekend_dc_norm.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert ("2016-10-01", 40) in empty and len(rows) == 2 * 96
        for day in ("2016-10-01", "2016-10-02"):
            values = {int(r["slot"]): float(r["value"]) for r in rows if r["day"] == day}
            assert {s for s, v in values.items() if np.isnan(v)} == {
                s for d, s in empty if d == day}
            finite = [v for v in values.values() if not np.isnan(v)]
            assert min(finite) == 0.0 and max(finite) == 1.0

    def test_svg_text_is_escaped(self, runner, workspace, tmp_path):
        # a date-group name is free text; the SVG carries it in its title
        name = "a&b <x>"
        cfg = tmp_path / "ts.yaml"
        cfg.write_text('date_groups: {"a&b <x>": ["2016-10-01", "2016-10-02"]}\n')
        out = tmp_path / "ts"
        result = runner.invoke(main, [
            "timeseries", "--series", os.path.join(workspace["out"], "network_series.csv"),
            "--scenario", name, "--config", str(cfg), "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        svg = minidom.parse(str(out / f"timeseries_{name}_dc.svg"))
        texts = [t.firstChild.data for t in svg.getElementsByTagName("text")]
        assert texts[0] == f"DC by slot ({name})" and texts[1] == "DC"

    def test_unknown_scenario_exit_1(self, runner, workspace, tmp_path):
        result = runner.invoke(main, [
            "timeseries", "--series",
            os.path.join(workspace["out"], "network_series.csv"),
            "--scenario", "holiday", "--out-dir", str(tmp_path)])
        assert result.exit_code == 1


    def test_malformed_date_groups_exit_1(self, runner, workspace, tmp_path):
        cfg = tmp_path / "ts.yaml"
        cfg.write_text("date_groups: {weekend: [2016-10-01]}\n")
        result = runner.invoke(main, [
            "timeseries", "--series", os.path.join(workspace["out"], "network_series.csv"),
            "--scenario", "weekend", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: date_groups") and result.stderr.count("\n") == 1

    @pytest.mark.parametrize("edit", [
        lambda rows: rows[:5] + ["2016-10-01T01:15,0.5"] + rows[6:],  # two fields
        lambda rows: rows[:-1],  # the last day ends one interval early
    ], ids=["two_fields", "partial_day"])
    def test_malformed_series_exit_1_one_line(self, runner, workspace, tmp_path, edit):
        with open(os.path.join(workspace["out"], "network_series.csv")) as fh:
            rows = fh.read().splitlines()
        path = tmp_path / "series.csv"
        path.write_text("\n".join(edit(rows)) + "\n")
        result = runner.invoke(main, ["timeseries", "--series", str(path),
                                      "--scenario", "weekend", "--out-dir", str(tmp_path)])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1


class TestSynthCommand:
    def test_writes_scenario_files(self, runner, tmp_path):
        out = str(tmp_path / "synth")
        result = runner.invoke(main, ["synth", "--seed", "3", "--out", out,
                                      "--write-truth"])
        assert result.exit_code == 0, result.output
        for name in ("network.geojson", "traces.csv", "truth_flow.csv",
                     "truth_speed.csv"):
            assert os.path.exists(os.path.join(out, name)), name

    def test_scenario_config(self, runner, tmp_path):
        cfg = tmp_path / "scenario.yaml"
        cfg.write_text("grid_rows: 3\ngrid_cols: 3\nn_days: 1\n"
                       "demand_profile: [" + ",".join(["1"] * 96) + "]\n")
        out = str(tmp_path / "out")
        result = runner.invoke(main, ["synth", "--config", str(cfg),
                                      "--seed", "1", "--out", out])
        assert result.exit_code == 0, result.output
        with open(os.path.join(out, "network.geojson")) as fh:
            assert len(json.load(fh)["features"]) == 12

    def test_bad_scenario_key_exit_1(self, runner, tmp_path):
        cfg = tmp_path / "scenario.yaml"
        cfg.write_text("not_a_field: 1\n")
        result = runner.invoke(main, ["synth", "--config", str(cfg),
                                      "--out", str(tmp_path / "o")])
        assert result.exit_code == 1

    @pytest.mark.parametrize("line, message", [
        ('start_date: "2016-13-01"', "bad scenario config: "),
        ('grid_rows: "9"', "grid_rows must be an integer, not '9'"),
        ("demand_profile: 5", "bad scenario config: 'int' object is not iterable"),
        ("seed: true", "seed must be an integer, not True"),
        ("segment_length_km: .nan", "segment_length_km must be a finite number"),
        ("start_date: 5", "bad scenario config: "),
        ("segment_length_km: 30\nvehicle_speed_kmh: 1", "a trip takes 97200 s, "),
        ("injected_offset: [1]", "injected_offset must be two finite numbers, not (1,)"),
        ("demand_profile: [" + ",".join(["1.5"] * 96) + "]",
         "demand_profile must hold non-negative integers, not 1.5"),
        ("per_road_speed_kmh: [1]", "per_road_speed_kmh must map road ids to speeds, not [1]"),
        ("grid_rows: 3\ngrid_cols: 3\nbase_lat: 95", "the grid reaches past lon [-180, 180]"),
        ("grid_rows: 3\ngrid_cols: 3\nbase_lat: 89.999", "the grid reaches past lon [-180, 180]"),
        ("grid_rows: 3\ngrid_cols: 3\nbase_lon: 179.999", "the grid reaches past lon [-180, 180]"),
        ("tz_offset_s: 90000", "tz_offset_s must be less than one day in magnitude"),
        ("noise_std_deg: -1.0", "noise_std_deg must be >= 0"),
    ], ids=["start_date", "grid_rows", "demand_profile", "seed", "segment_length_km",
            "start_date_not_a_string", "trip_duration", "injected_offset_one_number",
            "demand_profile_floats", "per_road_speed_kmh_list", "base_lat_past_the_pole",
            "grid_past_the_pole", "grid_past_the_antimeridian", "tz_offset_s_a_day",
            "negative_noise"])
    def test_bad_scenario_value_exit_1_one_line(self, runner, tmp_path, line, message):
        cfg = tmp_path / "scenario.yaml"
        cfg.write_text(line + "\n")
        result = runner.invoke(main, ["synth", "--config", str(cfg),
                                      "--out", str(tmp_path / "o")])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: " + message) and result.stderr.count("\n") == 1

    def test_anomaly_rate_is_not_a_scenario_field(self, runner, tmp_path):
        # anomalies are injected by synth.inject_anomalies, never by generate
        cfg = tmp_path / "scenario.yaml"
        cfg.write_text("anomaly_rate: 0.01\n")
        result = runner.invoke(main, ["synth", "--config", str(cfg),
                                      "--out", str(tmp_path / "o")])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: bad scenario config: ")
        assert "anomaly_rate" in result.stderr and result.stderr.count("\n") == 1


class TestMatrixCsvRoundTrip:
    def test_float_values_exact(self, workspace, tmp_path):
        speed = ex.read_matrix_csv(os.path.join(workspace["out"], "speed_raw.csv"))
        path = str(tmp_path / "again.csv")
        ex.write_matrix_csv(speed, path)
        again = ex.read_matrix_csv(path)
        assert again.same_axes(speed)
        np.testing.assert_array_equal(again.values, speed.values)
