"""File exports: matrix CSVs, GeoJSON heatmap layers, time-series CSV/SVG.

Every writer is deterministic: identical inputs produce byte-identical
files (verified via manifest digests).
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import io
import itertools
import json
import math
import os
import shutil
import warnings

import numpy as np

from . import parallel
from .errors import ExportError
from .ingest import IntervalIndex
from .patterns import SpatioTemporalMatrix


# Matrix CSV jobs at least this large are split between this process and
# one forked child when two CPUs are available (see parallel.fork_split).
# Reading an integer matrix CSV split that way took as long as serially at
# ~1 MiB and 28% less at 4.7 MiB (2-vCPU Xeon VM).
SPLIT_WRITE_CELLS = 1 << 20
SPLIT_READ_BYTES = 4 << 20
_BLOCK = 1 << 20  # bytes per read when joining a child's result
_ROW_BLOCK = 1 << 15  # cells of the rows _write_rows handles at once


def write_matrix_csv(matrix: SpatioTemporalMatrix, path, metadata: dict | None = None):
    """Write a matrix as CSV plus an optional ``<path>.meta.json`` sidecar.

    The header is ``road_id`` and the interval labels; each row is a road id
    and its cells, integers for an integer matrix and the shortest
    round-trip ``repr`` of each float otherwise. Lines end in ``\\r\\n``.
    Rows are formatted a block at a time, so no Python copy of the whole
    matrix is made. A row with fewer than half its cells nonzero is the
    all-zero row text with only its nonzero cells formatted and spliced
    in; any other row has every cell formatted. A cell counts as zero
    only if all its bits are, so ``-0.0`` and NaN are formatted like any
    other value.

    A matrix of at least SPLIT_WRITE_CELLS cells is written on two CPUs: a
    forked child formats the back half of the rows into a temporary file,
    which is appended to the front half. The bytes are the same.
    """
    header = ",".join(["road_id", *matrix.interval_labels()]) + "\r\n"
    n = len(matrix.road_ids)

    def head(stop):  # the header and rows :stop, the whole file if stop is n
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(header)
            _write_rows(fh, matrix, 0, stop)

    def back(tmp):
        out = io.TextIOWrapper(tmp, encoding="utf-8", newline="")
        _write_rows(out, matrix, n // 2, n)
        out.detach()  # flushes, and leaves tmp open

    def join(_, tmp):
        with open(path, "ab") as fh:
            shutil.copyfileobj(tmp, fh, _BLOCK)

    if matrix.values.size >= SPLIT_WRITE_CELLS and parallel.two_cpus():
        parallel.fork_split(lambda: head(n // 2), back, join, lambda: head(n))
    else:
        head(n)
    if metadata is not None:
        write_json(metadata, f"{path}.meta.json")


def _write_rows(fh, matrix, lo, hi):
    """Write rows ``lo:hi`` of ``matrix`` to the text file ``fh``.

    Every cell whose bits are all zero formats to the same text, ``zero``,
    so ``zeros`` is the text of an all-zero row and cell ``j`` of it
    starts at ``j * step``. A row with ``2 * k < n`` of its ``n`` cells
    nonzero is ``zeros`` with the texts of those ``k`` cells spliced in at
    their offsets; any other row is all its cells formatted and joined. The
    nonzero cells of a block's sparse rows are found and formatted at
    once, so such a row costs no numpy call of its own.
    """
    values = matrix.values
    n = values.shape[1]
    fmt = str if np.issubdtype(values.dtype, np.integer) else float.__repr__
    zero = fmt(values.dtype.type(0).item())
    zeros = ",".join([zero] * n)
    step = len(zero) + 1
    bits = values.view(f"u{values.dtype.itemsize}")
    rows = max(1, _ROW_BLOCK // max(n, 1))
    for b in range(lo, hi, rows):
        e = min(b + rows, hi)
        nonzero = bits[b:e] != 0
        counts = np.count_nonzero(nonzero, axis=1)
        sparse = 2 * counts < n
        nonzero[~sparse] = False
        flat = np.flatnonzero(nonzero)
        cells = zip((flat % n * step).tolist(), map(fmt, np.take(values[b:e], flat).tolist()))
        for row, rid, k, spliced in zip(range(b, e), matrix.road_ids[b:e], counts.tolist(),
                                        sparse.tolist()):
            if not spliced:
                fh.write(",".join([str(rid), *map(fmt, values[row].tolist())]) + "\r\n")
                continue
            parts = [str(rid), ","]
            pos = 0
            for off, text in itertools.islice(cells, k):
                parts += (zeros[pos:off], text)
                pos = off + len(zero)
            parts += (zeros[pos:], "\r\n")
            fh.write("".join(parts))


def read_matrix_csv(path) -> SpatioTemporalMatrix:
    """Read a matrix CSV in the layout ``write_matrix_csv`` writes.

    Road ids are int64 values returned as Python ints; the cells come back
    as one C-contiguous float64 array, for integer matrices too. A file
    that is empty or not UTF-8, a header label that is not an interval or
    not after the label before it, a road id outside int64 or on two rows,
    a cell that is not a number or a row of the wrong length raises
    ExportError.

    A body of at least SPLIT_READ_BYTES is read on two CPUs: a forked child
    loads the lines from the first line start at or after the middle byte
    on. Anything either side rejects is read again on the serial path,
    which raises the errors above.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            header = fh.readline()
            if not header:
                raise ExportError(f"{path} is empty")
            try:
                intervals = [IntervalIndex.from_label(lbl)
                             for lbl in header.rstrip("\r\n").split(",")[1:]]
            except ValueError as exc:
                raise ExportError(f"{path} header: {exc}") from None
            for a, b in zip(intervals, intervals[1:]):
                if b <= a:
                    raise ExportError(f"{path} header: {b.label()!r} does not come after "
                                      f"{a.label()!r}")
            record = np.dtype([("id", np.int64), ("v", np.float64, (len(intervals),))])

            def serial():
                first = fh.readline()  # loadtxt warns on a body without rows
                body = np.loadtxt(itertools.chain([first], fh), delimiter=",", comments=None,
                                  ndmin=1, dtype=record) if first else np.empty(0, record)
                return body["id"], np.ascontiguousarray(body["v"])

            start, stop = len(header.encode("utf-8")), os.fstat(fh.fileno()).st_size
            if stop - start >= SPLIT_READ_BYTES and parallel.two_cpus():
                ids, values = _read_split(path, start, stop, record, serial)
            else:
                ids, values = serial()
        except UnicodeDecodeError as exc:
            raise ExportError(f"{path} is not UTF-8 text: {exc}") from None
        except ValueError as exc:
            raise ExportError(_first_bad_line(path, record) or f"{path}: {exc}") from None
    uniq, count = np.unique(ids, return_counts=True)
    if uniq.size < ids.size:
        raise ExportError(f"{path}: road {uniq[np.argmax(count > 1)]} is on two rows")
    return SpatioTemporalMatrix(ids.tolist(), intervals, values)


def _first_bad_line(path, record):
    """The file line number and the reason of the first row of a matrix CSV
    that np.loadtxt rejects on its own; None if it rejects none."""
    width = 1 + record["v"].shape[0]
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for num, line in enumerate(itertools.islice(fh, 1, None), start=2):
            if not line.rstrip("\r\n"):  # np.loadtxt skips blank lines
                continue
            try:
                np.loadtxt([line], delimiter=",", comments=None, ndmin=1, dtype=record)
                continue
            except ValueError:
                pass
            fields = line.rstrip("\r\n").split(",")
            if len(fields) != width:
                return f"{path} line {num}: expected {width} fields, got {len(fields)}"
            for col, text in enumerate(fields, start=1):
                kind, name = (int, "int64") if col == 1 else (float, "float64")
                if not text.strip():
                    return f"{path} line {num}, field {col} is empty"
                try:
                    kind(text)
                except ValueError:
                    return f"{path} line {num}, field {col}: {text!r} is not {name}"
            return f"{path} line {num}: not an int64 road id and {width - 1} float64 cells"
    return None


def _read_split(path, start, stop, record, serial):
    """(ids, values) of the body bytes ``start:stop`` of a matrix CSV, the
    back half loaded by a forked child; ``serial()`` if either half fails."""
    mid = start + (stop - start) // 2
    if mid > start:  # move to the first line start at or after the middle byte
        with open(path, "rb") as fh:
            fh.seek(mid - 1)
            fh.readline()
            mid = fh.tell()

    def back(tmp):
        tmp.write(_load_lines(path, mid, stop, record))

    def join(front, tmp):
        n_front = len(front)
        n = n_front + os.fstat(tmp.fileno()).st_size // record.itemsize
        ids = np.empty(n, np.int64)
        values = np.empty((n, *record["v"].shape), np.float64)
        ids[:n_front], values[:n_front] = front["id"], front["v"]
        block = np.empty(max(1, _BLOCK // record.itemsize), record)
        for lo in range(n_front, n, len(block)):
            rows = block[:tmp.readinto(block) // record.itemsize]
            ids[lo:lo + len(rows)], values[lo:lo + len(rows)] = rows["id"], rows["v"]
        return ids, values

    return parallel.fork_split(lambda: _load_lines(path, start, mid, record), back, join, serial)


def _load_lines(path, start, stop, record):
    """np.loadtxt of the lines in bytes ``start:stop`` of ``path`` (which
    begin and end at line starts), read one line at a time. Any warning,
    such as loadtxt's on lines without data, is raised as an error."""
    def lines():
        with open(path, "rb") as fh:
            fh.seek(start)
            pos = start
            for line in fh:
                yield line.decode("utf-8")
                pos += len(line)
                if pos >= stop:
                    return

    if start == stop:
        return np.empty(0, record)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return np.loadtxt(lines(), delimiter=",", comments=None, ndmin=1, dtype=record)


def export_heatmap(matrix: SpatioTemporalMatrix, network, interval_label: str) -> dict:
    """One-interval GeoJSON layer: a line feature per road with its value
    and the ratio to the largest finite value of the matrix. A cell that
    is not finite (NaN, ±inf) has ``null`` for both, since JSON has no
    such numbers."""
    labels = matrix.interval_labels()
    try:
        col = labels.index(interval_label)
    except ValueError:
        raise ExportError(f"interval {interval_label!r} not in matrix") from None
    values = matrix.values
    overall_max = float(np.max(values, where=np.isfinite(values), initial=0.0))
    features = []
    for rid, row in zip(matrix.road_ids, values):
        seg = network.segments.get(rid)
        if seg is None:
            raise ExportError(f"road {rid} of the matrix is not in the network")
        value = float(row[col])
        ratio = value / overall_max if overall_max > 0 else 0.0
        features.append({
            "type": "Feature",
            "properties": {
                "road_id": rid,
                "value": value if math.isfinite(value) else None,
                "ratio": ratio if math.isfinite(value) else None,
            },
            "geometry": {
                "type": "LineString",
                "coordinates": [[lon, lat] for lat, lon in seg.polyline],
            },
        })
    return {"type": "FeatureCollection",
            "properties": {"interval": interval_label, "max_value": overall_max},
            "features": features}


def export_timeseries(day_matrix, days, csv_path, svg_path, title, y_label):
    """Scatter CSV (slot label, day, value) and an SVG overlay of all days.

    ``day_matrix`` is (n_days, n_slots); both files are byte-stable.
    """
    day_matrix = np.asarray(day_matrix, dtype=np.float64)
    n_days, n_slots = day_matrix.shape
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["slot", "day", "value"])
        for d in range(n_days):
            for s in range(n_slots):
                w.writerow([s, str(days[d]), repr(float(day_matrix[d, s]))])
    with open(svg_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(render_svg(day_matrix, days, title, y_label))


_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
            "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")


def render_svg(day_matrix, days, title, y_label) -> str:
    """Minimal deterministic SVG line plot, 900 x 420 px, one polyline per day."""
    width, height, margin = 900, 420, 60
    day_matrix = np.asarray(day_matrix, dtype=np.float64)
    n_days, n_slots = day_matrix.shape
    finite = day_matrix[np.isfinite(day_matrix)]
    y_min = float(finite.min()) if finite.size else 0.0
    y_max = float(finite.max()) if finite.size else 1.0
    if y_max == y_min:
        y_max = y_min + 1.0
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin

    def px(s):
        return margin + plot_w * s / max(n_slots - 1, 1)

    def py(v):
        return height - margin - plot_h * (v - y_min) / (y_max - y_min)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="16" y="{height / 2:.1f}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="12" transform="rotate(-90 16 {height / 2:.1f})">{y_label}</text>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        v = y_min + frac * (y_max - y_min)
        y = py(v)
        parts.append(f'<text x="{margin - 6}" y="{y:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="10">{v:.3g}</text>')
        s = frac * max(n_slots - 1, 1)
        parts.append(f'<text x="{px(s):.1f}" y="{height - margin + 16}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="10">{int(round(s))}</text>')
    for d in range(n_days):
        pts = []
        for s in range(n_slots):
            v = day_matrix[d, s]
            if np.isfinite(v):
                pts.append(f"{px(s):.2f},{py(v):.2f}")
        color = _PALETTE[d % len(_PALETTE)]
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.2" '
                     f'points="{" ".join(pts)}"><title>{days[d]}</title></polyline>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def write_json(obj, path):
    """Write ``obj`` as strict JSON: indented, keys sorted, dates in ISO
    form, numpy values as Python ones. NaN or an infinity raises ValueError
    before the file is opened."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False, default=_json_default)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _json_default(obj):
    if isinstance(obj, (datetime.date, datetime.datetime)):
        return obj.isoformat()
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")
