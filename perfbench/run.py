"""tracepattern benchmark: one workload, end to end or per layer.

Run from the root of a tracepattern checkout:

    python3 perfbench/run.py --workload city-day --seed 36 --seconds 30 --trace 0

The workload's inputs are generated from the seed in a process of their
own. The program then runs in fresh child processes, one at a time, and
every run's outputs are checked against the synthetic truth. --trace 0
reports the end-to-end metrics, with times scaled to a reference machine
speed (see calibrate); --trace 1 adds one traced run and reports
the per-layer metrics. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from check import CHECKS, check_digests, digests  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK = ".perfbench_work"  # under the checkout root; listed in .gitignore
SETUP_REPEATS = 11
# CPU seconds of probe() on a 2-vCPU Xeon VM (2.1 GHz) at its faster speed;
# reported times are scaled to this speed (see calibrate)
REF_PROBE_S = 0.22
PROBE_SHARE = 0.2  # probe after each item for this share of the item's time

# span name -> per-layer metric holding the span's self time
SPAN_METRICS = {
    "ingest.read_chunks": "ingest.read_chunks.s",
    "matching.apply_offset": "matching.apply_offset.s",
    "matching.match_batch": "matching.match_batch.self_s",
    "matching.estimate_offset": "matching.estimate_offset.self_s",
    "network.nearest_batch": "network.nearest_batch.s",
    "network.load_network": "network.load_network.s",
    "network.index_build": "network.index_build.s",
    "patterns.add": "patterns.add.s",
    "patterns.finalize": "patterns.finalize.s",
    "patterns.clean": "patterns.clean.s",
    "congestion.score_matrix": "congestion.score_matrix.s",
    "congestion.daily_aggregates": "congestion.daily_aggregates.s",
    "congestion.fitting_index": "congestion.fitting_index.s",
    "export.write_matrix_csv": "export.write_matrix_csv.s",
    "export.sha256_file": "export.sha256_file.s",
    "export.read_matrix_csv": "export.read_matrix_csv.s",
    "pipeline": "pipeline.self_s",
}
COUNT_UNITS = {
    "ingest.rows": "count",
    "ingest.skipped_rows": "count",
    "matching.unmatched": "count",
    "matching.offset_skipped": "count",
    "network.nearest.calls": "count",
    "network.nearest_batch.points": "count",
    "network.match_rate": "ratio",
    "patterns.points": "count",
    "patterns.cells": "count",
    "patterns.roads_dropped": "count",
    "export.write_matrix_csv.bytes": "bytes",
    "export.read_matrix_csv.bytes": "bytes",
}


def code_digest():
    """SHA-256 over the program's and the benchmark's Python sources, so
    that only identical code shares a digest reference."""
    h = hashlib.sha256()
    for root in ("src", os.path.relpath(HERE)):
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for name in sorted(n for n in filenames if n.endswith(".py")):
                path = os.path.join(dirpath, name)
                h.update(path.replace(os.sep, "/").encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def probe():
    """CPU seconds of a fixed mix of the program's kinds of work (a Python
    loop, a numpy sort, float formatting): the machine's current speed."""
    start = time.process_time()
    total = 0
    for i in range(1_500_000):
        total += i * i % 7
    values = np.random.default_rng(0).random(2_000_000)
    np.sort(values)
    ",".join(f"{x:.3f}" for x in values[:200_000])
    return time.process_time() - start


def calibrate(results, probes):
    """Draw from the lazy iterable ``results``, timing at least ``probes``
    probe()s before the first item and after each, and after an item for
    at least PROBE_SHARE of the time it took. Returns (item, factor) pairs,
    where factor = REF_PROBE_S / the mean probe time around that item:
    seconds times the factor are seconds at the reference speed. On a
    shared VM the speed of CPU work can drift by 40% over seconds to
    minutes; a run's time follows the probes around it."""
    def speed(seconds):
        times = [probe() for _ in range(probes)]
        while sum(times) < seconds:
            times.append(probe())
        return statistics.fmean(times)

    out = []
    before = speed(0)
    start = time.perf_counter()
    for item in results:
        after = speed(PROBE_SHARE * (time.perf_counter() - start))
        out.append((item, 2 * REF_PROBE_S / (before + after)))
        before = after
        start = time.perf_counter()
    return out


class Bench:
    """Inputs, child environment and output checks of one (workload, seed)."""

    def __init__(self, workload, seed, run_dir):
        self.run_dir = run_dir
        src = os.path.abspath("src")
        self.env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                        PYTHONPATH=os.pathsep.join(
                            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        inputs = os.path.join(run_dir, "inputs")
        subprocess.run([sys.executable, os.path.join(HERE, "workloads.py"),
                        "--workload", workload, "--seed", str(seed), "--out", inputs],
                       env=self.env, check=True)
        with open(os.path.join(inputs, "meta.json"), encoding="utf-8") as fh:
            self.meta = json.load(fh)
        with np.load(os.path.join(inputs, "truth.npz")) as npz:
            self.truth = dict(npz)
        m = self.meta
        # paths relative to run_dir, so the manifest's config echo is the
        # same in every run of this (workload, seed)
        if m["kind"] == "estimate":
            self.cli_args = ["estimate", "--traces", f"inputs/{m['traces']}",
                             "--network", f"inputs/{m['network']}", "--out", "out"]
        else:
            self.cli_args = ["analyze", "--flow", f"inputs/{m['flow']}",
                             "--speed", f"inputs/{m['speed']}",
                             "--network", f"inputs/{m['network']}", "--out", "out"]
        # the first passing run of this (workload, seed, code) in the
        # checkout sets the reference every later run must match
        self.ref_path = os.path.join(WORK, "digests",
                                     f"{workload}-{seed}-{code_digest()[:16]}.json")
        self.attempted = self.failed = 0

    def spawn(self, args, log_name):
        """Run child.py once; (exit code, wall s, CPU s, peak RSS MB) from
        the child's own rusage."""
        log_path = os.path.join(self.run_dir, log_name)
        start = time.perf_counter()
        with open(log_path, "wb") as log:
            proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), *args],
                                    cwd=self.run_dir, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.attempted += 1
        return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0)

    def fail(self, what, problems, log_name):
        self.failed += 1
        print(f"FAILED {what}: {'; '.join(problems)} (log: {log_name})", file=sys.stderr)
        with open(os.path.join(self.run_dir, log_name), encoding="utf-8",
                  errors="replace") as fh:
            sys.stderr.write("".join(fh.readlines()[-20:]))

    def setup_time(self):
        """One fresh child: import, load_network and index build; seconds or None."""
        code, _, _, _ = self.spawn(["setup", f"inputs/{self.meta['network']}"], "setup.log")
        if code != 0:
            self.fail("setup", [f"exit code {code}"], "setup.log")
            return None
        with open(os.path.join(self.run_dir, "setup.log"), encoding="utf-8") as fh:
            return json.loads(fh.read().splitlines()[-1])["setup_s"]

    def run(self, traced=False):
        """One measured run; returns (wall, cpu, rss, ok)."""
        out = os.path.join(self.run_dir, "out")
        shutil.rmtree(out, ignore_errors=True)
        trace = ["--trace", "spans.json"] if traced else []
        log_name = "traced.log" if traced else "run.log"
        code, wall, cpu, rss = self.spawn(["cli", *trace, *self.cli_args], log_name)
        problems = [f"exit code {code}"] if code != 0 else self.verify(out)
        if problems:
            self.fail("traced run" if traced else "run", problems, log_name)
        return wall, cpu, rss, not problems

    def verify(self, out):
        if not os.path.isdir(out):
            return ["no output directory"]
        problems = CHECKS[self.meta["kind"]](out, self.meta, self.truth)
        found = digests(out)
        ref = None
        if os.path.exists(self.ref_path):
            with open(self.ref_path, encoding="utf-8") as fh:
                ref = json.load(fh)
        problems += check_digests(found, ref)
        if ref is None and not problems:
            os.makedirs(os.path.dirname(self.ref_path), exist_ok=True)
            with open(self.ref_path, "w", encoding="utf-8") as fh:
                json.dump(found, fh)
        return problems

    def measure(self, seconds):
        """Untraced runs, at least one, until the next would pass
        ``seconds``; (wall, cpu, rss, ok, factor) each."""
        deadline = time.perf_counter() + seconds

        def runs():
            walls = []
            while not walls or time.perf_counter() + statistics.median(walls) <= deadline:
                run = self.run()
                walls.append(run[0])
                yield run

        return [(*run, factor) for run, factor in calibrate(runs(), probes=3)]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def report(name, values, unit, note=""):
    q1, med, q3 = quartiles(values)
    print(f"{name:<34} {med:>14.6g} {unit:<10} q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}{note}")
    return {"value": med, "unit": unit}


def end_to_end(bench, seconds):
    setups = calibrate((bench.setup_time() for _ in range(SETUP_REPEATS)), probes=1)
    setups = [(s, f) for s, f in setups if s is not None]
    if not setups:
        sys.exit("error: every setup run failed")
    runs = bench.measure(seconds)
    records = bench.meta["records"]
    what = " (trace rows)" if bench.meta["kind"] == "estimate" else " (matrix cells read)"
    raw = (f"; raw wall_s median {statistics.median(r[0] for r in runs):.6g} s, speed "
           f"factor median {statistics.median(r[4] for r in runs):.4g}")
    metrics = {
        "wall_s": report("wall_s", [r[0] * r[4] for r in runs], "s", raw),
        "records_per_s": report("records_per_s", [records / (r[0] * r[4]) for r in runs],
                                "records/s", what),
        "cpu_s": report("cpu_s", [r[1] * r[4] for r in runs], "s"),
        "peak_rss_mb": report("peak_rss_mb", [r[2] for r in runs], "MB"),
        "setup_s": report("setup_s", [s * f for s, f in setups], "s",
                          f"; raw median {statistics.median(s for s, _ in setups):.6g} s"),
    }
    return metrics


def per_layer(bench, seconds):
    runs = bench.measure(seconds)
    untraced = statistics.median(r[0] for r in runs)
    wall, _, _, _ = bench.run(traced=True)
    spans_path = os.path.join(bench.run_dir, "spans.json")
    trace = {"spans": [], "counts": {}, "absent": ["every layer: the traced run wrote no spans"]}
    if os.path.exists(spans_path):
        with open(spans_path, encoding="utf-8") as fh:
            trace = json.load(fh)
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    values = dict.fromkeys(SPAN_METRICS.values(), 0.0)
    for i, (name, start, end, _) in enumerate(spans):
        values[SPAN_METRICS[name]] += (end - start) - child_time[i]
    root = sum(end - start for _, start, end, parent in spans if parent < 0)

    counts = trace["counts"]
    values.update(dict.fromkeys(COUNT_UNITS, 0))
    values.update({k: v for k, v in counts.items() if k in COUNT_UNITS})
    manifest = os.path.join(bench.run_dir, "out", "manifest.json")
    if os.path.exists(manifest):
        with open(manifest, encoding="utf-8") as fh:
            c = json.load(fh)["counts"]
        values["ingest.rows"], values["ingest.skipped_rows"] = c["rows_total"], c["skipped_rows"]
    points = counts.get("network.nearest_batch.points", 0)
    values["network.match_rate"] = (
        counts.get("network.nearest_batch.matched", 0) / points if points else 0.0)
    values["process.startup_s"] = wall - root
    values["trace.wall_s"] = wall
    values["trace.overhead_s"] = wall - untraced

    metrics = {}
    for name, value in values.items():
        unit = COUNT_UNITS.get(name, "s")
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:<34} {value:>14.6g} {unit}")
    self_sum = sum(values[m] for m in SPAN_METRICS.values())
    print(f"self times incl. pipeline.self_s sum to {self_sum:.6f} s (root spans {root:.6f} s); "
          f"+ process.startup_s = {self_sum + values['process.startup_s']:.6f} s = trace.wall_s; "
          f"untraced median {untraced:.6f} s (n={len(runs)})")
    if trace["absent"]:
        print(f"absent layers (reported as 0): {', '.join(trace['absent'])}")
    return metrics


def run_workload(name, seed, seconds, trace):
    """Generate, measure and check one workload; returns (Bench, metrics)."""
    os.makedirs(WORK, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK)
    try:
        bench = Bench(name, seed, run_dir)
        print(f"workload {name} seed {seed}: {bench.meta['records']} records; "
              f"{WORKLOADS[name]['why']}")
        metrics = (per_layer if trace else end_to_end)(bench, seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(f"failed_runs {bench.failed} of {bench.attempted} runs attempted")
    return bench, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True,
                    help="one workload, or all of them in turn (metric names "
                         "then carry the workload as a prefix)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measure for this long (at least one run)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "tracepattern", "__init__.py")):
        print("error: no src/tracepattern here; run from the root of a "
              "tracepattern checkout", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        bench, found = run_workload(name, args.seed, args.seconds, args.trace)
        attempted += bench.attempted
        failed += bench.failed
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in found.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
