import gzip
import json
import os

import numpy as np
import pytest
from click.testing import CliRunner

from tracepattern import export as ex
from tracepattern.cli import main
from tracepattern.synth import (Scenario, generate, uniform_profile,
                                write_scenario)


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

    def test_unknown_config_key_exit_1(self, runner, workspace, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"traces_path: {workspace['traces']}\n"
                       f"network_path: {workspace['net']}\n"
                       f"out_dir: {tmp_path / 'o'}\n"
                       "typo_key: 1\n")
        assert runner.invoke(main, ["estimate", "--config", str(cfg)]).exit_code == 1


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

    def test_unknown_scenario_exit_1(self, runner, workspace, tmp_path):
        result = runner.invoke(main, [
            "timeseries", "--series",
            os.path.join(workspace["out"], "network_series.csv"),
            "--scenario", "holiday", "--out-dir", str(tmp_path)])
        assert result.exit_code == 1


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


class TestMatrixCsvRoundTrip:
    def test_float_values_exact(self, workspace, tmp_path):
        speed = ex.read_matrix_csv(os.path.join(workspace["out"], "speed_raw.csv"))
        path = str(tmp_path / "again.csv")
        ex.write_matrix_csv(speed, path)
        again = ex.read_matrix_csv(path)
        assert again.same_axes(speed)
        np.testing.assert_array_equal(again.values, speed.values)
