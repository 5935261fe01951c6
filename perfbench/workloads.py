"""Benchmark workloads: parameters, the reason each was chosen, and seeded
input generation.

Generation runs in a process of its own, so that its memory never shows in
a measured run's peak RSS:

    python3 perfbench/workloads.py --workload city-day --seed 36 --out DIR

DIR receives the program's inputs plus ``truth.npz`` and ``meta.json``,
which only the output check reads.
"""

from __future__ import annotations

import argparse
import datetime
import gzip
import json
import os
import shutil

START = datetime.date(2016, 10, 1)  # a Saturday, so a week holds both day groups

# Each estimate workload is one synth.Scenario; the benchmark seed becomes
# the scenario seed, so `--seed 36` on city-day is the test_7 input.
WORKLOADS = {
    "city-day": {
        "kind": "estimate",
        "why": ("per-ping work dominates: 1M pings on 220 roads, plain CSV, "
                "offset estimated; the test_7 input at seed 36"),
        "scenario": {"grid_rows": 11, "grid_cols": 11, "per_slot": 680},
        "gzip": False,
    },
    "metro-week": {
        "kind": "estimate",
        "why": ("per-road and per-cell work dominates: 7,080 roads x 672 "
                "intervals, sparse gzip traces, injected offset"),
        "scenario": {"grid_rows": 60, "grid_cols": 60, "n_days": 7,
                     "bimodal": (60, 12),
                     "injected_offset": (0.0004, -0.0003)},
        "gzip": True,
    },
    "reanalyze": {
        "kind": "analyze",
        "why": ("the analyze command on 2.67M-cell saved matrices: cleaning, "
                "scoring and matrix CSV reads; ingest and matching idle"),
        # 32x32 grid = 1,984 roads, 14 days = 1,344 intervals
        "grid": 32, "n_days": 14,
        "missing": 0.05,          # share of empty speed cells on normal roads
        "dropped_every": 10,      # every tenth road ...
        "dropped_missing": 0.30,  # ... is 30% empty, so the 20% filter drops it
        "anomaly": 0.005,         # share of cells above 70 km/h
    },
}


# tracepattern is imported inside the functions below: run.py imports this
# module for WORKLOADS without the program on its path.


def _scenario(params, seed):
    from tracepattern import synth

    p = dict(params)
    if "per_slot" in p:
        profile = synth.uniform_profile(p.pop("per_slot"))
    else:
        profile = synth.bimodal_profile(*p.pop("bimodal"))
    return synth.Scenario(seed=seed, demand_profile=profile, start_date=START, **p)


def _generate_estimate(spec, seed, out):
    import numpy as np
    from tracepattern import synth

    gen = synth.generate(_scenario(spec["scenario"], seed))
    net_path, trace_path = synth.write_scenario(gen, out)
    if spec["gzip"]:
        with open(trace_path, "rb") as src, \
                gzip.GzipFile(trace_path + ".gz", "wb", mtime=0) as dst:
            shutil.copyfileobj(src, dst)
        os.remove(trace_path)
        trace_path += ".gz"
    truth = gen.truth
    np.savez(os.path.join(out, "truth.npz"), flow=truth.flow.values,
             speed=truth.speed.values)
    return {
        "network": os.path.basename(net_path),
        "traces": os.path.basename(trace_path),
        "records": truth.n_pings,  # one trace row per ping, header not counted
        "road_ids": truth.flow.road_ids,
        "labels": truth.flow.interval_labels(),
    }


def _generate_analyze(spec, seed, out):
    import numpy as np
    from tracepattern import export, synth
    from tracepattern.patterns import SpatioTemporalMatrix, full_interval_axis

    rng = np.random.default_rng(seed)
    doc = synth.grid_network_doc(synth.Scenario(grid_rows=spec["grid"],
                                                grid_cols=spec["grid"]))
    n_roads = len(doc["features"])
    for feat in doc["features"][::2]:  # half the roads supply free flow
        feat["properties"]["free_flow_kmh"] = round(float(rng.uniform(45.0, 65.0)), 1)
    axis = full_interval_axis(START, START + datetime.timedelta(days=spec["n_days"] - 1))
    n_cols = len(axis)

    slot = np.arange(n_cols) % 96
    rush = ((slot >= 32) & (slot < 38)) | ((slot >= 70) & (slot < 76))
    base = rng.uniform(25.0, 55.0, (n_roads, 1))
    speed = base * np.where(rush, 0.6, 1.0) * rng.uniform(0.9, 1.1, (n_roads, n_cols))
    missing = rng.random((n_roads, n_cols)) < spec["missing"]
    dropped = np.arange(n_roads) % spec["dropped_every"] == 0
    k = int(round(spec["dropped_missing"] * n_cols))
    for r in np.nonzero(dropped)[0]:
        missing[r] = False
        missing[r, rng.choice(n_cols, size=k, replace=False)] = True
    speed[missing] = 0.0
    observed = np.flatnonzero(~missing)
    n_anom = int(round(spec["anomaly"] * speed.size))
    speed.ravel()[rng.choice(observed, size=n_anom, replace=False)] = \
        rng.uniform(75.0, 120.0, n_anom)
    flow = rng.poisson(np.where(rush, 8.0, 3.0), (n_roads, n_cols)).astype(np.int64)

    road_ids = list(range(n_roads))
    with open(os.path.join(out, "network.geojson"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
    export.write_matrix_csv(SpatioTemporalMatrix(road_ids, axis, flow),
                            os.path.join(out, "flow.csv"))
    export.write_matrix_csv(SpatioTemporalMatrix(road_ids, axis, speed),
                            os.path.join(out, "speed_raw.csv"))
    np.savez(os.path.join(out, "truth.npz"), flow=flow)
    return {
        "network": "network.geojson",
        "flow": "flow.csv",
        "speed": "speed_raw.csv",
        "records": 2 * n_roads * n_cols,  # matrix cells read: flow + speed
        "road_ids": road_ids,
        "kept_road_ids": [r for r in road_ids if not dropped[r]],
        "labels": [iv.label() for iv in axis],
    }


def generate(name, seed, out):
    """Write the inputs of one (workload, seed) into the new directory ``out``."""
    spec = WORKLOADS[name]
    os.makedirs(out)
    make = _generate_estimate if spec["kind"] == "estimate" else _generate_analyze
    meta = make(spec, seed, out)
    meta.update({"workload": name, "seed": seed, "kind": spec["kind"]})
    with open(os.path.join(out, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
