"""Output checks for one run, against the synthetic ground truth.

Every function returns a list of problems; an empty list means the run's
outputs are correct. The checks read the output files with their own CSV
parsing, never with the program's readers.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

SPEED_REL_TOL = 0.02  # the test_2 bound on speed against the synth truth


def read_matrix(path):
    """(road ids, interval labels, float values) of a matrix CSV."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        labels = next(csv.reader(fh))[1:]
        grid = np.loadtxt(fh, delimiter=",", dtype=np.float64, ndmin=2)
    return grid[:, 0].astype(np.int64).tolist(), labels, grid[:, 1:]


def digests(out_dir):
    """SHA-256 of every file in an output directory, by name."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        h = hashlib.sha256()
        with open(os.path.join(out_dir, name), "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        out[name] = h.hexdigest()
    return out


def check_digests(found, reference):
    """Outputs of a repeat must be byte-identical to the first repeat's."""
    if reference is None or found == reference:
        return []
    changed = sorted(n for n in set(found) | set(reference)
                     if found.get(n) != reference.get(n))
    return [f"output bytes differ from an earlier repeat: {changed}"]


def _axes(path, meta, ids_key="road_ids"):
    ids, labels, values = read_matrix(path)
    problems = []
    if ids != meta[ids_key]:
        problems.append(f"{os.path.basename(path)}: road ids differ from the input's")
    if labels != meta["labels"]:
        problems.append(f"{os.path.basename(path)}: interval labels differ from the input's")
    return problems, values


def check_estimate(out_dir, meta, truth):
    """Pipeline outputs: flow exact, speed within 2%, counts that balance."""
    try:
        with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
            c = json.load(fh)["counts"]
        problems = []
        if c["rows_total"] != c["parsed"] + c["skipped_rows"]:
            problems.append(f"rows_total != parsed + skipped_rows: {c}")
        if c["parsed"] != c["offset_skipped"] + c["matched"] + c["unmatched"]:
            problems.append(f"parsed != offset_skipped + matched + unmatched: {c}")
        if c["rows_total"] != meta["records"]:
            problems.append(f"rows_total {c['rows_total']} != {meta['records']} input rows")

        p, flow = _axes(os.path.join(out_dir, "flow.csv"), meta)
        problems += p
        if not p and not np.array_equal(flow, truth["flow"]):
            bad = int(np.count_nonzero(flow != truth["flow"]))
            problems.append(f"flow.csv: {bad} cells differ from the truth")

        p, speed = _axes(os.path.join(out_dir, "speed_raw.csv"), meta)
        problems += p
        if not p:
            t = truth["speed"]
            err = np.abs(speed - t)
            # also catches a speed where the truth has none, and NaN
            over = ~(err <= SPEED_REL_TOL * np.abs(t))
            if over.any():
                problems.append(f"speed_raw.csv: {int(over.sum())} cells beyond "
                                f"{SPEED_REL_TOL:.0%} of the truth")
        return problems
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


def _finite_nonneg(text):
    return text != "" and math.isfinite(float(text)) and float(text) >= 0.0


def check_analyze(out_dir, meta, truth):
    """analyze outputs: dropped roads, flow totals and defined scores."""
    try:
        problems, scores = _axes(os.path.join(out_dir, "inrix.csv"), meta, "kept_road_ids")
        if not problems and not (np.isfinite(scores).all() and (scores >= 0).all()):
            problems.append("inrix.csv: a score is undefined or negative")

        flow = truth["flow"]
        with open(os.path.join(out_dir, "network_series.csv"), encoding="utf-8") as fh:
            series = list(csv.reader(fh))[1:]
        if [r[0] for r in series] != meta["labels"]:
            problems.append("network_series.csv: interval labels differ from the input's")
        elif [int(r[2]) for r in series] != flow.sum(axis=0).tolist():
            problems.append("network_series.csv: cf_total differs from the flow column sums")
        elif not all(_finite_nonneg(r[1]) for r in series):
            problems.append("network_series.csv: a network score is undefined or negative")

        with open(os.path.join(out_dir, "daily.csv"), encoding="utf-8") as fh:
            daily = list(csv.reader(fh))[1:]
        day_totals = flow.reshape(flow.shape[0], -1, 96).sum(axis=(0, 2)).tolist()
        if [r[0] for r in daily] != [lbl.split("T")[0] for lbl in meta["labels"][::96]]:
            problems.append("daily.csv: days differ from the input's")
        elif [int(r[1]) for r in daily] != day_totals:
            problems.append("daily.csv: cf_total differs from the flow day sums")
        elif any(r[3] != "0" or not _finite_nonneg(r[2]) for r in daily):
            problems.append("daily.csv: a day is partial or its mean score undefined")

        with open(os.path.join(out_dir, "fitting.json"), encoding="utf-8") as fh:
            fitting = json.load(fh)
        for group in ("weekday", "weekend"):
            for label in ("dc", "cf"):
                f2 = fitting.get(group, {}).get(label, {}).get("f2")
                if not isinstance(f2, float) or not f2 <= 1.0:
                    problems.append(f"fitting.json: no f2 <= 1 for {group}/{label}")
        return problems
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


CHECKS = {"estimate": check_estimate, "analyze": check_analyze}
