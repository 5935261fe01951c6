"""Self-check of the output check: a corrupted run must count in failed_runs.

    python3 perfbench/selfcheck.py

Run from the root of a tracepattern checkout. For metro-week and reanalyze
(the smaller workload of each kind) it makes three runs through the same
code as run.py: a clean one, which must pass; one where a single matrix
cell is changed after the program exits, which the content check must
catch with no digest reference to lean on; and one where a single digit
is changed in an output whose digits the content checks do not read, which
the digest comparison must catch. The two "FAILED" reports on standard
error are the expected ones. Exits 0 when failed_runs is exactly 2 of 3 on
both workloads.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

from run import WORK, Bench

SEED = 1  # workload seed of the self-check runs


def change_cell(out, kind):
    """+1 on the first data cell of flow.csv, or on the first day's cf_total."""
    name = "flow.csv" if kind == "estimate" else "daily.csv"
    path = os.path.join(out, name)
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    fields = lines[1].split(",")
    fields[1] = str(int(float(fields[1])) + 1)
    lines[1] = ",".join(fields)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def change_byte(out, kind):
    """Change the last digit of a file whose digits the content check does
    not read: network_series.csv of the pipeline, inrix.csv of analyze."""
    path = os.path.join(out, "network_series.csv" if kind == "estimate" else "inrix.csv")
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    pos = len(data) - 1
    while not chr(data[pos]).isdigit():
        pos -= 1
    data[pos] = ord("1") if data[pos] != ord("1") else ord("2")
    with open(path, "wb") as fh:
        fh.write(data)


class CorruptingBench(Bench):
    """Bench whose next run's outputs are altered after the program exits."""

    corrupt = None

    def spawn(self, args, log_name):
        result = super().spawn(args, log_name)
        if self.corrupt is not None:
            self.corrupt(os.path.join(self.run_dir, "out"), self.meta["kind"])
        return result


def check_workload(workload, seed):
    os.makedirs(WORK, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"selfcheck-{workload}-{seed}-", dir=WORK)
    try:
        bench = CorruptingBench(workload, seed, run_dir)
        clean = bench.run()[3]
        reference = bench.ref_path
        bench.ref_path = os.path.join(run_dir, "no-reference.json")
        bench.corrupt = change_cell
        cell = bench.run()[3]
        bench.ref_path = reference
        bench.corrupt = change_byte
        byte = bench.run()[3]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    ok = clean and not cell and not byte and bench.failed == 2
    print(f"{workload}: clean run {'passed' if clean else 'FAILED'}; "
          f"changed cell {'failed' if not cell else 'PASSED'}; "
          f"changed byte {'failed' if not byte else 'PASSED'}; "
          f"failed_runs {bench.failed} of {bench.attempted} -> {'ok' if ok else 'WRONG'}")
    return ok


def main():
    if not os.path.isfile(os.path.join("src", "tracepattern", "__init__.py")):
        print("error: run from the root of a tracepattern checkout", file=sys.stderr)
        return 2
    results = [check_workload(w, SEED) for w in ("metro-week", "reanalyze")]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
