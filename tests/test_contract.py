"""The CLI's error contract under mutated inputs.

Each test mutates one part of a small valid synth input and runs the
commands that read it through ``CliRunner``. Whatever the input, a command
exits 0, 1 or 2 and lets no exception but ``SystemExit`` escape. A failure
prints exactly one stderr line: ``data-quality abort: ...`` for exit 2,
which only a ``DataQualityError`` gives, and ``error: ...`` for exit 1. A
failed ``estimate`` whose settings were valid writes a manifest that
names the failed stage; a successful one writes a balanced rows ledger.
"""

import datetime
import json
import math
import os
import tempfile

import pytest
import yaml
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from tracepattern.cli import main
from tracepattern.pipeline import STAGES
from tracepattern.synth import Scenario, generate, uniform_profile, write_scenario

# a day on a 2 x 3 grid, 1,440 pings: one estimate takes about 10 ms. The
# grids span every day from the first timestamp to the last, so a ten-digit
# timestamp that loses or repeats a digit would make them span decades or
# centuries (gigabytes). On this Friday in 1970 the timestamps have five or
# six digits, and such an edit moves a row by days.
SCENARIO = Scenario(seed=5, grid_rows=2, grid_cols=3, demand_profile=uniform_profile(1),
                    start_date=datetime.date(1970, 1, 2))
INTERVAL = "1970-01-02T08:00"

# derandomized, with a fixed budget, so the tier-1 run stays the same
contract = settings(derandomize=True, database=None, deadline=None, max_examples=60)

# values of any YAML or JSON type; numbers stay small so that a mutated
# scenario stays cheap to generate
values = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 12),
    st.sampled_from([0.0, -1.5, 0.25, 2.5, 1e300, math.nan, math.inf, -math.inf]),
    st.text(max_size=4), st.sampled_from(["2016-10-01", "2016-02-30", "0x10", "1e3"]),
    st.lists(st.integers(-1, 3), max_size=3), st.just({"a": [1]}))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Paths of SCENARIO's network and traces and of one estimate's outputs."""
    root = tmp_path_factory.mktemp("contract")
    net, traces = write_scenario(generate(SCENARIO), str(root / "in"))
    out = str(root / "run")
    result = CliRunner().invoke(main, ["estimate", "--traces", traces, "--network", net,
                                       "--offset", "0", "0", "--out", out])
    assert result.exit_code == 0, result.output
    return {"net": net, "traces": traces, "flow": os.path.join(out, "flow.csv"),
            "speed": os.path.join(out, "speed_raw.csv"),
            "series": os.path.join(out, "network_series.csv")}


def example_dir():
    """A new directory for one hypothesis example, removed after it."""
    return tempfile.TemporaryDirectory(prefix="tracepattern-contract-")


def run(*args, settings_valid=True):
    """Invoke the CLI and check the contract; returns the exit code."""
    result = CliRunner().invoke(main, [str(a) for a in args], catch_exceptions=False)
    code = result.exit_code
    assert code in (0, 1, 2), (code, result.output)
    if code:
        assert result.stderr.count("\n") == 1, result.stderr
        assert result.stderr.startswith("data-quality abort: " if code == 2 else "error: ")
    if args[0] == "estimate":
        out = args[args.index("--out") + 1]
        path = os.path.join(out, "manifest.json")
        if code == 0:
            with open(path, encoding="utf-8") as fh:
                c = json.load(fh)["counts"]
            assert c["rows_total"] == c["parsed"] + c["skipped_rows"]
            assert c["parsed"] == c["offset_skipped"] + c["matched"] + c["unmatched"]
        elif settings_valid or os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                manifest = json.load(fh)
            assert manifest["failed_stage"] in STAGES
            assert result.stderr.rstrip("\n").endswith(manifest["error"])
    return code


def write(path, data):
    with open(path, "wb") as fh:
        fh.write(data)
    return path


@st.composite
def byte_edits(draw):
    """A function of bytes: truncate them, drop or repeat one, or insert a
    ``"``, ``\\r``, NUL or a byte that is not UTF-8."""
    kind = draw(st.sampled_from(["truncate", "drop", "repeat", "insert"]))
    at = draw(st.floats(0.0, 1.0))
    new = draw(st.sampled_from([b'"', b"\r", b"\x00", b"\xff"]))

    def edit(data):
        i = min(int(at * len(data)), len(data) - 1)
        if kind == "truncate":
            return data[:i]
        if kind == "drop":
            return data[:i] + data[i + 1:]
        if kind == "repeat":
            return data[:i + 1] + data[i:]
        return data[:i] + new + data[i:]

    return edit


@given(edit=byte_edits(), estimated=st.booleans(), strict=st.booleans())
@contract
def test_trace_bytes(inputs, edit, estimated, strict):
    """``strict``: a ceiling on the error rate that one broken row passes."""
    with example_dir() as d, open(inputs["traces"], "rb") as fh:
        traces = write(os.path.join(d, "traces.csv"), edit(fh.read()))
        config = os.path.join(d, "run.yaml")
        with open(config, "w", encoding="utf-8") as out:
            yaml.safe_dump({"error_rate_ceiling": 1e-4 if strict else 0.01,
                            "offset": None if estimated else [0.0, 0.0]}, out)
        run("estimate", "--config", config, "--traces", traces, "--network", inputs["net"],
            "--out", os.path.join(d, "out"))
        run("offset", "--traces", traces, "--network", inputs["net"])


@given(feature=st.integers(0, 6), path=st.sampled_from(["id", "coordinate", "free_flow_kmh",
                                                        "geometry.type"]),
       vertex=st.integers(0, 1), axis=st.integers(0, 1), value=values)
@contract
def test_network_value(inputs, feature, path, vertex, axis, value):
    with open(inputs["net"], encoding="utf-8") as fh:
        doc = json.load(fh)
    feat = doc["features"][feature % len(doc["features"])]
    if path == "id":
        feat["properties"]["id"] = value
    elif path == "free_flow_kmh":
        feat["properties"]["free_flow_kmh"] = value
    elif path == "geometry.type":
        feat["geometry"]["type"] = value
    else:
        feat["geometry"]["coordinates"][vertex][axis] = value
    with example_dir() as d:
        net = os.path.join(d, "network.geojson")
        with open(net, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)  # NaN and infinities as JavaScript's literals
        run("estimate", "--traces", inputs["traces"], "--network", net, "--offset", 0, 0,
            "--out", os.path.join(d, "out"))
        run("analyze", "--flow", inputs["flow"], "--speed", inputs["speed"], "--network", net,
            "--out", os.path.join(d, "analysis"))
        run("heatmap", "--matrix", inputs["flow"], "--network", net,
            "--interval", INTERVAL, "--out", os.path.join(d, "h.json"))


cells = st.one_of(values.map(str), st.sampled_from(
    ["", "nan", "-1", "0.5", "1e400", "x", INTERVAL, "1970-01-02T08:07",
     "1970-01-09T00:00", "1,2", "road_id"]))


@given(which=st.sampled_from(["flow", "speed", "series"]), row=st.integers(0, 8),
       column=st.integers(0, 96), cell=cells)
@contract
def test_matrix_csv_cell(inputs, which, row, column, cell):
    """A cell or a label: row 0 is the header, column 0 the road id or
    interval label."""
    with open(inputs[which], encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    fields = lines[row % (len(lines) - 1)].split(",")
    fields[column % len(fields)] = cell
    lines[row % (len(lines) - 1)] = ",".join(fields)
    with example_dir() as d:
        paths = {**inputs, which: write(os.path.join(d, os.path.basename(inputs[which])),
                                        "\n".join(lines).encode())}
        run("analyze", "--flow", paths["flow"], "--speed", paths["speed"],
            "--network", inputs["net"], "--out", os.path.join(d, "analysis"))
        run("heatmap", "--matrix", paths[which if which != "series" else "flow"],
            "--network", inputs["net"], "--interval", INTERVAL,
            "--out", os.path.join(d, "h.json"))
        run("timeseries", "--series", paths["series"], "--scenario", "weekday",
            "--out-dir", os.path.join(d, "series"))


RUN_KEYS = ["tz_offset_s", "chunk_size", "max_dist_km", "pair_dt_max_s", "anomaly_kmh",
            "missing_fraction", "error_rate_ceiling", "offset", "offset_sample_size",
            "date_groups", "traces_path", "out_dir", "bogus"]
SCENARIO_KEYS = ["seed", "grid_rows", "grid_cols", "segment_length_km", "demand_profile",
                 "vehicle_speed_kmh", "per_road_speed_kmh", "ping_period_s",
                 "noise_std_deg", "injected_offset", "n_days", "start_date", "base_lat",
                 "base_lon", "tz_offset_s"]


@given(key=st.sampled_from(RUN_KEYS), value=values)
@contract
def test_run_config_value(inputs, key, value):
    with example_dir() as d:
        config = os.path.join(d, "run.yaml")
        with open(config, "w", encoding="utf-8") as fh:
            yaml.safe_dump({"offset": [0.0, 0.0], key: value}, fh)
        run("estimate", "--config", config, "--traces", inputs["traces"],
            "--network", inputs["net"], "--out", os.path.join(d, "out"), settings_valid=False)
        run("analyze", "--config", config, "--flow", inputs["flow"], "--speed", inputs["speed"],
            "--network", inputs["net"], "--out", os.path.join(d, "analysis"))
        run("timeseries", "--config", config, "--series", inputs["series"],
            "--scenario", "weekday", "--out-dir", os.path.join(d, "series"))


@given(key=st.sampled_from(SCENARIO_KEYS), value=values)
@contract
def test_scenario_value(key, value):
    small = {"grid_rows": 2, "grid_cols": 2, "demand_profile": [1] * 96}
    with example_dir() as d:
        config = os.path.join(d, "scenario.yaml")
        with open(config, "w", encoding="utf-8") as fh:
            yaml.safe_dump({**small, key: value}, fh)
        run("synth", "--config", config, "--out", os.path.join(d, "out"))
