"""File exports: matrix CSVs, GeoJSON heatmap layers, time-series CSV/SVG.

Every writer is deterministic: identical inputs produce byte-identical
files (verified via manifest digests).
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import os
import re
import shutil

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
_BLOCK = 1 << 20  # bytes per read: joining a child's result, buffering the line reader
_ROW_BLOCK = 1 << 15  # cells of the rows _write_rows handles at once
# A row with fewer than one cell in _SPLICE_EVERY nonzero is the zero-row
# text with those cells spliced in. Per 2,000 x 672 rows (CPU time, best of
# 15, 2-vCPU Xeon VM), splicing 2% of the cells took 0.019 s for float64 and
# 0.014 s for int64, and 4% 0.028 and 0.030 s, against 0.024 and 0.018 s
# for formatting the rows whole.
_SPLICE_EVERY = 50


def write_matrix_csv(matrix: SpatioTemporalMatrix, path, metadata: dict | None = None):
    """Write a matrix as CSV plus an optional ``<path>.meta.json`` sidecar.

    The header is ``road_id`` and the interval labels; each row is a road id
    and its cells, integers for an integer matrix and the shortest
    round-trip ``repr`` of each float (as float64) otherwise. Lines end in
    ``\\r\\n``. Cells are formatted by orjson a block of rows at a time
    (see _format_rows), so no Python copy of the whole matrix is made. A
    row with fewer than one cell in _SPLICE_EVERY nonzero is the all-zero
    row text with only its nonzero cells formatted and spliced in; any
    other row has every cell formatted. A cell counts as zero only if all
    its bits are, so ``-0.0`` and NaN are formatted like any other value.

    A matrix of at least SPLIT_WRITE_CELLS cells is written on two CPUs: a
    forked child formats the back half of the rows into a temporary file,
    which is appended to the front half. The bytes are the same.
    """
    import orjson  # noqa: F401  only matrix CSVs need it; imported once, before the fork

    header = ",".join(["road_id", *matrix.interval_labels()]).encode() + b"\r\n"
    n = len(matrix.road_ids)

    def head(stop):  # the header and rows :stop, the whole file if stop is n
        with open(path, "wb") as fh:
            fh.write(header)
            _write_rows(fh, matrix, 0, stop)

    def join(_, tmp):
        with open(path, "ab") as fh:
            shutil.copyfileobj(tmp, fh, _BLOCK)

    if matrix.values.size >= SPLIT_WRITE_CELLS and parallel.two_cpus():
        parallel.fork_split(lambda: head(n // 2), lambda tmp: _write_rows(tmp, matrix, n // 2, n),
                            join, lambda: head(n))
    else:
        head(n)
    if metadata is not None:
        write_json(metadata, f"{path}.meta.json")


def _write_rows(fh, matrix, lo, hi):
    """Write rows ``lo:hi`` of ``matrix`` to the binary file ``fh``.

    Every cell whose bits are all zero formats to the same text, ``zero``,
    so ``zeros`` is the text of an all-zero row and cell ``j`` of it
    starts at ``j * step``. A row with ``k * _SPLICE_EVERY < n`` of its
    ``n`` cells nonzero is ``zeros`` with the texts of those ``k`` cells
    spliced in at their offsets; any other row is all its cells formatted.
    The nonzero cells of a block's sparse rows are found and formatted at
    once, so such a row costs no numpy call of its own.
    """
    values = matrix.values
    n = values.shape[1]
    kind = values.dtype.kind
    dtype = np.float64 if kind == "f" else np.uint64 if kind == "u" else np.int64
    zero = _format_rows(np.zeros((1, 1), dtype))[0]
    zeros = b",".join([zero] * n)
    step = len(zero) + 1
    comma = b"," if n else b""  # a row of no cells is its road id alone
    bits = values.view(f"u{values.dtype.itemsize}")
    rows = max(1, _ROW_BLOCK // max(n, 1))
    for b in range(lo, hi, rows):
        e = min(b + rows, hi)
        block = np.ascontiguousarray(values[b:e], dtype)
        nonzero = bits[b:e] != 0
        counts = np.count_nonzero(nonzero, axis=1)
        sparse = counts * _SPLICE_EVERY < n
        nonzero[~sparse] = False
        flat = np.flatnonzero(nonzero)
        whole = iter(_format_rows(block[~sparse]))
        texts = _format_rows(np.take(block, flat)[None])[0].split(b",")
        cells = zip((flat % n * step).tolist(), texts)
        lines = []
        for rid, k, spliced in zip(matrix.road_ids[b:e], counts.tolist(), sparse.tolist()):
            lines += (str(rid).encode(), comma)
            if not spliced:
                lines += (next(whole), b"\r\n")
                continue
            pos = 0
            for off, text in itertools.islice(cells, k):
                lines += (zeros[pos:off], text)
                pos = off + len(zero)
            lines += (zeros[pos:], b"\r\n")
        fh.write(b"".join(lines))


def _format_rows(block) -> list[bytes]:
    """The comma-joined cell texts of each row of the 2-D C-contiguous
    float64, int64 or uint64 array ``block``: ``str`` of each integer,
    ``repr`` of each float.

    orjson writes an integer as ``str`` does, and a float with the same
    shortest, closest digits as ``repr``, in the same form for every
    nonzero |x| in [1e-4, 1e16). Outside that range it writes ``null`` for
    NaN and ±inf, and ``0.00001`` and ``1e16`` where ``repr`` writes
    ``1e-05`` and ``1e+16``. So the rows are written from a copy of the
    block that holds NaN in those other cells, and each ``null`` of a row
    becomes, in column order, the ``repr`` of its cell (``nan`` for NaN).
    """
    import orjson

    if block.dtype.kind != "f":
        return [orjson.dumps(row, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1] for row in block]
    size = np.abs(block)
    odd = ((size < 1e-4) & (size != 0)) | (size >= 1e16)  # ±inf included, NaN not
    null = odd | np.isnan(size)
    written = block
    if odd.any():
        written = block.copy()
        written[odd] = np.nan
    rows = [orjson.dumps(row, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1] for row in written]
    odd_rows = odd.any(axis=1)
    for r in np.flatnonzero(null.any(axis=1)).tolist():
        if not odd_rows[r]:
            rows[r] = rows[r].replace(b"null", b"nan")
            continue
        parts = rows[r].split(b"null")
        texts = [repr(value).encode() for value in block[r, null[r]].tolist()]
        rows[r] = b"".join([text for pair in zip(parts, texts) for text in pair] + parts[-1:])
    return rows


def read_matrix_csv(path) -> SpatioTemporalMatrix:
    """Read a matrix CSV in the layout ``write_matrix_csv`` writes.

    Road ids are int64 values returned as Python ints; the cells come back
    as one C-contiguous float64 array, for integer matrices too. A file
    that is empty or not UTF-8, a header label that is not an interval or
    not after the label before it, a road id outside int64 or on two rows,
    a cell that is not a number or a row of the wrong length raises
    ExportError.

    The body is read by _load_lines: orjson parses each row it reads as
    np.loadtxt would, and one np.loadtxt call the rest, so the values, the
    rows read and the errors are those of np.loadtxt over the body's lines.
    A body of at least SPLIT_READ_BYTES is read on two CPUs: a forked child
    loads the lines from the first line start at or after the middle byte
    on. Anything either side rejects is read again on the serial path,
    which raises the errors above.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            header = fh.readline()
        except UnicodeDecodeError as exc:
            raise ExportError(f"{path} is not UTF-8 text: {exc}") from None
        start, stop = len(header.encode("utf-8")), os.fstat(fh.fileno()).st_size
    if not header:
        raise ExportError(f"{path} is empty")
    try:
        intervals = [IntervalIndex.from_label(lbl)
                     for lbl in header.rstrip("\r\n").split(",")[1:]]
    except ValueError as exc:
        raise ExportError(f"{path} header: {exc}") from None
    for a, b in zip(intervals, intervals[1:]):
        if b <= a:
            raise ExportError(f"{path} header: {b.label()!r} does not come after {a.label()!r}")
    record = np.dtype([("id", np.int64), ("v", np.float64, (len(intervals),))])

    def serial():
        body = _load_lines(path, start, stop, record)
        return body["id"], np.ascontiguousarray(body["v"])

    try:
        if stop - start >= SPLIT_READ_BYTES and parallel.two_cpus():
            ids, values = _read_split(path, start, stop, record, serial)
        else:
            ids, values = serial()
    except ValueError as exc:  # UnicodeDecodeError too
        raise ExportError(_first_bad_line(path, record) or f"{path}: {exc}") from None
    uniq, count = np.unique(ids, return_counts=True)
    if uniq.size < ids.size:
        raise ExportError(f"{path}: road {uniq[np.argmax(count > 1)]} is on two rows")
    return SpatioTemporalMatrix(ids.tolist(), intervals, values)


def _first_bad_line(path, record):
    """The file line number and the reason of the first row of a matrix CSV
    that np.loadtxt rejects on its own, or the UTF-8 decoding error of the
    file read as text if that comes first; None if there is neither."""
    width = 1 + record["v"].shape[0]
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
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
        except UnicodeDecodeError as exc:
            return f"{path} is not UTF-8 text: {exc}"
    return None


def _read_split(path, start, stop, record, serial):
    """(ids, values) of the body bytes ``start:stop`` of a matrix CSV, the
    back half loaded by a forked child; ``serial()`` if either half fails."""
    with open(path, "rb") as fh:
        mid = parallel.line_start(fh, start + (stop - start) // 2)

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


# The bytes of the cells of a row orjson may parse: those of the JSON numbers,
# which np.loadtxt reads to the same float64 but for "-0", of "nan", read as
# null, and the comma.
_CELL_BYTES = b"0123456789+-.eE,na"
_MINUS_ZERO = re.compile(rb"(?:^|,)-0(?:,|$)")  # np.loadtxt: -0.0; orjson: the int 0
_INT64 = np.iinfo(np.int64)


def _load_lines(path, start, stop, record):
    """The records of the lines in bytes ``start:stop`` of ``path`` (which
    begin and end at line starts), as np.loadtxt reads them from the file
    opened as text with ``newline=""``, skipping each line that is empty
    but for its end.

    The lines are read one at a time into blocks of records, each parsed by
    orjson where _orjson_row reads it as np.loadtxt would. The lines it
    declines go to one np.loadtxt call, whose records are put back in file
    order: np.loadtxt skips no line that reaches it, since it skips only
    those that are empty but for their end. That call's errors, and a
    declined line that is not UTF-8, raise ValueError.
    """
    n = record["v"].shape[0]
    size = max(1, _BLOCK // record.itemsize)
    blocks, block, used = [], np.empty(size, record), 0
    rest, holes = [], []  # the declined lines and their rows
    for line in _lines(path, start, stop):
        end = len(line) - line.endswith(b"\n")
        end -= line.endswith(b"\r", 0, end)
        if not end:
            continue
        if used == size:
            blocks.append(block)
            block, used = np.empty(size, record), 0
        row = _orjson_row(line[:end], n)
        if row is None:
            rest.append(line.decode("utf-8"))
            holes.append(len(blocks) * size + used)
        else:
            block[used] = row
        used += 1
    body = np.concatenate([*blocks, block[:used]])
    if rest:
        body[holes] = np.loadtxt(rest, delimiter=",", comments=None, ndmin=1, dtype=record)
    return body


def _orjson_row(text, n):
    """(road id, cells) of the matrix CSV line ``text``, without its end, as
    orjson reads it; None unless the road id is an int64 in ASCII digits and
    the ``n`` cells hold only _CELL_BYTES and no ``-0``. A cell ``nan`` is
    read as null, whose None numpy stores as np.nan, the bits np.loadtxt
    reads from ``nan``. A row without ``nan``, ``.``, ``e`` or ``E`` is an
    int64 array, which stores faster than its list of ints; with an
    integer beyond int64 it is None too."""
    import orjson  # only matrix CSVs need it

    rid, sep, cells = text.partition(b",")
    digits = rid[1:] if rid.startswith(b"-") else rid
    if (sep != (b"," if n else b"") or not digits.isdigit()
            or cells.translate(None, _CELL_BYTES)
            or b"-0" in cells and _MINUS_ZERO.search(cells)):
        return None
    rid = int(rid)
    nan = b"n" in cells
    if nan:
        cells = cells.replace(b"nan", b"null")
    try:
        row = orjson.loads(b"[" + cells + b"]")
        if not (nan or b"." in cells or b"e" in cells or b"E" in cells):
            row = np.fromiter(row, np.int64, len(row))
    except (orjson.JSONDecodeError, OverflowError):
        return None
    return (rid, row) if len(row) == n and _INT64.min <= rid <= _INT64.max else None


def _lines(path, start, stop):
    """The lines in bytes ``start:stop`` of ``path``, split at ``\\n``,
    ``\\r\\n`` and a lone ``\\r`` as text mode with ``newline=""`` splits them."""
    with open(path, "rb", buffering=_BLOCK) as fh:
        fh.seek(start)
        while start < stop and (line := fh.readline()):
            start += len(line)
            if line.find(b"\r", 0, len(line) - 2 * line.endswith(b"\r\n")) >= 0:
                yield from line.splitlines(keepends=True)
            else:
                yield line


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
    from xml.sax.saxutils import escape  # it imports urllib.request: ~35 ms at startup

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
        f'font-family="sans-serif" font-size="16">{escape(title)}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="16" y="{height / 2:.1f}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="12" transform="rotate(-90 16 {height / 2:.1f})">{escape(y_label)}</text>',
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
    """Write ``obj``, plain Python values, as strict JSON: indented, keys
    sorted. NaN or an infinity raises ValueError before the file is opened."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
