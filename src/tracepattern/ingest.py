"""Chunked trace-file ingestion.

Reads CSV GPS trace files (optionally gzipped) in fixed-size chunks,
tokenizes each block of lines with ``np.loadtxt`` (``csv.reader`` where it
must), validates the block as column arrays, and hands each chunk on as one
TraceBatch of columns.
Also maps timestamps to day-local 15-minute intervals.
"""

from __future__ import annotations

import bisect
import csv
import datetime
import gzip
import io
import itertools
import logging
import math
import numbers
import re
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import DataQualityError, IngestError, ParseError, RecordValidationError

logger = logging.getLogger(__name__)

SECONDS_PER_DAY = 86400
INTERVAL_SECONDS = 900
SLOTS_PER_DAY = SECONDS_PER_DAY // INTERVAL_SECONDS  # 96

# The trace-file layout: one row per ping, these fields in this order
COLUMNS = ("driver_id", "order_id", "timestamp", "lon", "lat")
DEFAULT_TZ_OFFSET_S = 8 * 3600  # UTC+8
DEFAULT_CHUNK_SIZE = 10_000
DEFAULT_ERROR_RATE_CEILING = 0.01
# 9999-12-31T00:00Z: with |tz offset| < 1 day, every local date stays in year 9999
MAX_TIMESTAMP = 253402214400

# Don't trip the error-rate ceiling on a handful of rows.
CEILING_MIN_ROWS = 1000

_EPOCH_ORDINAL = datetime.date(1970, 1, 1).toordinal()


@dataclass(frozen=True, eq=False)
class TraceBatch:
    """Aligned columns of parsed pings, in source order.

    ``road_id`` is None until ``matching.match_batch`` labels each row with
    its nearest road.
    """

    order_id: np.ndarray  # object (str)
    timestamp: np.ndarray  # int64, epoch seconds
    lat: np.ndarray  # float64
    lon: np.ndarray  # float64
    road_id: np.ndarray | None = None  # int64

    @classmethod
    def concat(cls, batches) -> "TraceBatch":
        """One batch holding the rows of ``batches`` in order."""
        if not batches:
            return cls(np.empty(0, dtype=object), np.empty(0, dtype=np.int64),
                       np.empty(0), np.empty(0))
        road = None if batches[0].road_id is None else \
            np.concatenate([b.road_id for b in batches])
        return cls(*(np.concatenate([getattr(b, name) for b in batches])
                     for name in ("order_id", "timestamp", "lat", "lon")), road)

    def __len__(self) -> int:
        return self.timestamp.size

    def __getitem__(self, rows) -> "TraceBatch":
        """The rows selected by a slice, boolean mask or index array."""
        road = None if self.road_id is None else self.road_id[rows]
        return TraceBatch(self.order_id[rows], self.timestamp[rows],
                          self.lat[rows], self.lon[rows], road)


@dataclass(frozen=True, order=True)
class IntervalIndex:
    """A day-local 15-minute bucket: 96 slots per day."""

    day: datetime.date
    slot: int

    def label(self) -> str:
        h, rem = divmod(self.slot * INTERVAL_SECONDS, 3600)
        return f"{self.day.isoformat()}T{h:02d}:{rem // 60:02d}"

    @classmethod
    def from_label(cls, label: str) -> "IntervalIndex":
        """Inverse of ``label``; any other string raises ValueError."""
        try:
            day_part, time_part = label.split("T")
            h, m = time_part.split(":")
            iv = cls(datetime.date.fromisoformat(day_part),
                     (int(h) * 3600 + int(m) * 60) // INTERVAL_SECONDS)
        except ValueError:
            iv = None
        if iv is None or not 0 <= iv.slot < SLOTS_PER_DAY or iv.label() != label:
            raise ValueError(f"{label!r} is not an interval label")
        return iv


@dataclass(frozen=True)
class ParserConfig:
    """Ingest policy: rows per chunk, an integer >= 1, and the error-rate
    ceiling, a positive finite number; ValueError otherwise."""

    chunk_size: int = DEFAULT_CHUNK_SIZE
    error_rate_ceiling: float = DEFAULT_ERROR_RATE_CEILING

    def __post_init__(self):
        if not isinstance(self.chunk_size, int) or isinstance(self.chunk_size, bool) \
                or self.chunk_size < 1:
            raise ValueError(f"chunk_size must be an integer >= 1, not {self.chunk_size!r}")
        ceiling = self.error_rate_ceiling
        if not (isinstance(ceiling, numbers.Real) and not isinstance(ceiling, bool)
                and 0 < ceiling < math.inf):  # NaN fails too
            raise ValueError(f"error_rate_ceiling must be a positive finite number, "
                             f"not {ceiling!r}")


@dataclass
class IngestStats:
    """Row-level bookkeeping of a file or a byte range; parsed + skipped equals rows read."""

    parsed: int = 0
    parse_errors: int = 0
    validation_errors: int = 0
    samples: list = field(default_factory=list)  # "row N: error" of the first 10 skipped rows
    last_row: int = 0  # the number of the last row read; blank rows and a header count
    skips: list = field(default_factory=list)  # (rows parsed before, number) per skipped row
    offset_skipped: int = 0  # these three, counted by the pipeline, sum to parsed
    matched: int = 0
    unmatched: int = 0

    @property
    def skipped(self) -> int:
        return self.parse_errors + self.validation_errors

    @property
    def total(self) -> int:
        return self.parsed + self.skipped

    def merge(self, back: "IngestStats"):
        """Append ``back``, the record of the next range, moving its positions and row numbers."""
        renumbered = (f"row {num + self.last_row}: {text.partition(': ')[2]}"
                      for (_, num), text in zip(back.skips, back.samples))
        self.samples += itertools.islice(renumbered, 10 - len(self.samples))
        self.skips += [(before + self.parsed, num + self.last_row) for before, num in back.skips]
        for name in ("parsed", "parse_errors", "validation_errors", "last_row",
                     "offset_skipped", "matched", "unmatched"):
            setattr(self, name, getattr(self, name) + getattr(back, name))


def _parse_rows(rows):
    """Convert and validate a block of rows, each a list of field strings.

    Returns (TraceBatch of the valid rows in order, [(position, error)] in
    row order), where ``error`` is the ParseError or RecordValidationError
    of the first rule the row at ``position`` breaks: field count; then
    timestamp, lat and lon conversion; then the value rules of
    ``_validate``.
    """
    width = len(COLUMNS)
    errors = {}
    positions = range(len(rows))
    if set(map(len, rows)) - {width}:
        for pos, r in enumerate(rows):
            if len(r) != width:
                errors[pos] = ParseError(f"expected {width} fields, got {len(r)}")
        positions = [pos for pos in positions if pos not in errors]
        rows = [rows[pos] for pos in positions]
    column = dict(zip(COLUMNS, zip(*rows) if rows else [()] * width))
    failed = {}
    converted = []
    for name, kind in (("timestamp", int), ("lat", float), ("lon", float)):
        values, bad = _convert(column[name], kind)
        for i, exc in bad.items():
            failed.setdefault(i, ParseError(f"malformed numeric field: {exc}"))
        converted.append(values)
    batch, failed = _validate(np.array(column["driver_id"], dtype=object),
                              np.array(column["order_id"], dtype=object),
                              np.array(converted[0], dtype=object),  # may overflow int64
                              np.array(converted[1], dtype=np.float64),
                              np.array(converted[2], dtype=np.float64), failed)
    errors.update((positions[i], exc) for i, exc in failed.items())
    return batch, sorted(errors.items())


def _add_rows(batch, errors, kept, rows, nums):
    """Parse the field lists ``rows``, numbered ``nums``, into ``batch``,
    whose rows are numbered ``kept``, and its [(number, error)] ``errors``,
    keeping row order in all three; returns the three."""
    more, failed = _parse_rows(rows)
    batch = TraceBatch.concat([batch, more])
    kept = np.concatenate([kept, np.delete(np.asarray(nums, dtype=np.int64),
                                           [pos for pos, _ in failed])])
    if np.any(kept[:-1] > kept[1:]):  # rows of ``more`` come before some of ``batch``
        order = np.argsort(kept, kind="stable")
        batch, kept = batch[order], kept[order]
    errors += ((nums[pos], exc) for pos, exc in failed)
    return batch, sorted(errors, key=lambda error: error[0]), kept


def _convert(texts, kind):
    """(``kind`` of each text, {index: ValueError}); a text that fails reads as 0."""
    try:
        return list(map(kind, texts)), {}
    except ValueError:
        pass
    values, failed = [], {}
    for i, text in enumerate(texts):
        try:
            values.append(kind(text))
        except ValueError as exc:
            values.append(kind(0))
            failed[i] = exc
    return values, failed


def _validate(driver, order, ts, lat, lon, errors=None):
    """Apply the value rules to converted columns of one block.

    ``errors`` maps the rows already rejected to their error. The rules,
    in order: empty driver or order id, timestamp not in
    (0, MAX_TIMESTAMP), latitude not in [-90, 90], longitude not in
    [-180, 180]. Returns (TraceBatch of the rows that pass, {row: error}),
    each failed row keeping the error of the first rule it breaks.
    """
    errors = {} if errors is None else errors
    bad = np.zeros(len(ts), dtype=bool)
    bad[list(errors)] = True

    def reject(rule, error):
        bad[rule] = True
        for i in np.flatnonzero(rule).tolist():
            errors.setdefault(i, error(i))

    reject((driver == "") | (order == ""),
           lambda i: RecordValidationError("empty driver_id or order_id"))
    reject(ts <= 0, lambda i: RecordValidationError(f"non-positive timestamp {int(ts[i])}"))
    reject(ts >= MAX_TIMESTAMP,
           lambda i: RecordValidationError(f"timestamp {int(ts[i])} past year 9999"))
    reject(~((lat >= -90.0) & (lat <= 90.0)),
           lambda i: RecordValidationError(f"latitude {float(lat[i])} out of range"))
    reject(~((lon >= -180.0) & (lon <= 180.0)),
           lambda i: RecordValidationError(f"longitude {float(lon[i])} out of range"))
    keep = ~bad
    return TraceBatch(order[keep], ts[keep].astype(np.int64), lat[keep], lon[keep]), errors


_RECORD = np.dtype([(name, {"timestamp": np.int64, "lon": np.float64,
                            "lat": np.float64}.get(name, object)) for name in COLUMNS])


def _load_lines(lines):
    """Tokenize and convert a block of lines, none holding a ``"``, with np.loadtxt.

    Blank lines are dropped. Returns (one _RECORD per row,
    index in ``lines`` of each record, indices in ``lines`` of the lines
    left to csv.reader): the lines np.loadtxt rejects (a wrong field count,
    a number it will not parse or an int64 overflow), or every line when
    one is longer than csv's field limit, where csv.reader raises and
    np.loadtxt would not.
    """
    lengths = list(map(len, lines))
    if lines and max(lengths) > csv.field_size_limit():
        return np.empty(0, _RECORD), [], range(len(lines))
    at = range(len(lines))
    if lines and min(lengths) <= 2:  # room for a blank line
        at = [i for i, line in enumerate(lines) if line.rstrip("\r\n")]
        lines = [lines[i] for i in at]

    def load(rows):
        return np.loadtxt(rows, dtype=_RECORD, delimiter=",", comments=None,
                          quotechar=None, ndmin=1) if rows else np.empty(0, _RECORD)

    rejected, lo, table = [], 0, np.empty(0, _RECORD)
    while lo < len(lines):
        try:
            table = load(itertools.islice(lines, lo, None))
            break
        except ValueError as exc:
            named = _LOADTXT_ROW.search(str(exc))
        if named:
            # np.loadtxt numbers the rejected row from 0 or from 1, by the
            # kind of error, so the rows before the named one minus 1 loaded
            rejected.append(max(lo + int(named[1]) - 1, lo))
            lo = rejected[-1] + 1
        else:  # csv.reader takes the rest
            rejected += range(lo, len(lines))
            lo = len(lines)
    if rejected:  # load the lines before the last one rejected, then the tail
        keep = sorted(set(range(lo)).difference(rejected))
        table = np.concatenate([load([lines[i] for i in keep]), table])
        at, rejected = [at[i] for i in keep] + list(at[lo:]), [at[i] for i in rejected]
    return table, at, rejected


_LOADTXT_ROW = re.compile(r" at row (\d+)")


def _raising(exc):
    """An iterator that raises ``exc`` when asked for an item."""
    raise exc
    yield


def _looks_like_header(fields) -> bool:
    """Whether a file's first record is a header: it has one field per
    column and none of its ``timestamp``, ``lat`` and ``lon`` fields
    parses as a number. Any other first record is a row."""
    if len(fields) != len(COLUMNS):
        return False
    for name in ("timestamp", "lat", "lon"):
        try:
            float(fields[COLUMNS.index(name)])
            return False
        except ValueError:
            pass
    return True


def open_trace_file(path, start=0, stop=None):
    """Open a trace file as a text stream; transparently handles gzip.

    ``start`` and ``stop`` limit a plain file to its bytes ``start:stop``
    (``stop`` None: to its end); a byte range of a gzipped file raises
    ValueError.
    """
    if str(path).endswith(".gz"):
        if start != 0 or stop is not None:
            raise ValueError(f"{path}: a gzipped trace file has no byte ranges")
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8", newline="")
    raw = open(path, "rb", buffering=0)
    if start:  # not on a FIFO
        raw.seek(start)
    if stop is not None:
        raw = _Head(raw, stop)
    return io.TextIOWrapper(io.BufferedReader(raw), encoding="utf-8", newline="")


class _Head(io.RawIOBase):
    """The raw file ``raw`` up to its byte ``stop``."""

    def __init__(self, raw, stop):
        self._raw = raw
        self._left = max(stop - raw.tell(), 0)

    def readable(self):
        return True

    def readinto(self, buf):
        n = self._raw.readinto(memoryview(buf)[:self._left])
        self._left -= n
        return n

    def close(self):
        self._raw.close()
        super().close()


def read_chunks(source, config: ParserConfig = ParserConfig(), stats: IngestStats | None = None,
                head=True, tail=True):
    """Yield TraceBatches of at most ``config.chunk_size`` parsed rows.

    ``source`` is an open text stream. Malformed rows are counted on
    ``stats`` and skipped; the run aborts with DataQualityError once the
    error rate exceeds the configured ceiling (checked per chunk, after a
    minimum of 1000 rows). A stream that cannot be read or decoded raises
    IngestError.

    Rows are numbered on from ``stats.last_row``. Without ``head`` the stream
    starts past the file's first line, so its first record is a row and no
    check is made; without ``tail`` the file goes on, and its end is unchecked.

    Each block of lines is read on its own. np.loadtxt tokenizes its lines
    up to the first one holding a ``"``. One csv.reader then reads the
    lines np.loadtxt rejects, the block's lines from that ``"`` on, and
    any lines that a quoted field there carries on into. A block with a
    line longer than csv's field limit goes to csv.reader whole. A row's
    number is its csv record number.
    """
    if stats is None:
        stats = IngestStats()
    lines = iter(source)
    chunk: list[TraceBatch] = []
    first = head  # no record read yet, so the next one may be a header

    def csv_rows(block, rejected, q, start):
        """(field lists, numbers) of the csv records of ``block``'s lines
        ``rejected`` and of its lines from ``q`` on, read on into ``lines``
        while a quoted field is open; blank records and a header are skipped."""
        nonlocal first
        reader = csv.reader(itertools.chain((block[i] for i in rejected),
                                            itertools.islice(block, q, None), lines))
        stop = len(rejected) + len(block) - q  # lines of the block
        rows, kept = [], []
        for num in itertools.chain((start + i for i in rejected), itertools.count(start + q)):
            stats.last_row = num - 1  # the last record read in full
            if reader.line_num >= stop:
                break
            fields = next(reader, None)
            if fields is None:
                break
            if fields and not (first and _looks_like_header(fields)):
                rows.append(fields)
                kept.append(num)
            first = first and not fields
        return rows, kept

    try:
        while True:
            # a block never crosses a chunk boundary, so the error rate is
            # checked after the same rows as a row-at-a-time reader would
            need = config.chunk_size - sum(map(len, chunk))
            size = 1 if first else need  # only the first row can be a header
            start, block = stats.last_row + 1, []
            try:
                block.extend(itertools.islice(lines, size))
            except Exception as exc:  # raised again once the lines read are parsed
                if not block:
                    raise
                lines = _raising(exc)
            q = len(block)
            if '"' in "".join(block):
                q = next(i for i, line in enumerate(block) if '"' in line)
            table, at, rejected = _load_lines(block[:q])
            first = first and not len(table)
            batch, failed = _validate(table["driver_id"], table["order_id"],
                                      table["timestamp"], table["lat"], table["lon"])
            errors = [(start + at[i], exc) for i, exc in sorted(failed.items())]
            rows, nums = csv_rows(block, rejected, q, start)
            if rows or errors:  # the numbers of the rows of ``batch``
                kept = np.delete(np.asarray(at, dtype=np.int64), list(failed)) + start
            if rows:
                batch, errors, kept = _add_rows(batch, errors, kept, rows, nums)
            if errors:
                nums = [num for num, _ in errors]
                stats.skips += zip((np.searchsorted(kept, nums) + stats.parsed).tolist(), nums)
                parse_errors = sum(isinstance(exc, ParseError) for _, exc in errors)
                stats.parse_errors += parse_errors
                stats.validation_errors += len(errors) - parse_errors
                stats.samples += [f"row {num}: {exc}"
                                  for num, exc in errors[:10 - len(stats.samples)]]
            stats.parsed += len(batch)
            if len(batch):
                chunk.append(batch)
            if not block:
                break
            if len(batch) == need:
                if head:
                    check_error_rate(stats, config, replay=False)
                yield TraceBatch.concat(chunk)
                chunk = []
    except (OSError, EOFError, zlib.error, UnicodeDecodeError, csv.Error) as exc:
        raise IngestError(f"read failure after row {stats.last_row}: {exc}") from exc
    if head and tail:
        check_error_rate(stats, config, replay=False)
    if chunk:
        yield TraceBatch.concat(chunk)


def check_error_rate(stats: IngestStats, config: ParserConfig, replay=True):
    """Raise the DataQualityError that read_chunks raises first over the
    file that ``stats`` records (without ``replay``: at its last check). It
    checks at end of file and at each multiple k of chunk_size parsed rows,
    counting the rows skipped before the k-th (no block crosses k)."""
    size = config.chunk_size
    ends = range(size, stats.parsed + 1, size) if replay and stats.skips else ()
    checks = ((k, bisect.bisect_left(stats.skips, (k,))) for k in ends)
    for parsed, skipped in itertools.chain(checks, [(stats.parsed, stats.skipped)]):
        total = parsed + skipped
        if total >= CEILING_MIN_ROWS and skipped / total > config.error_rate_ceiling:
            raise DataQualityError(
                f"row error rate {skipped / total:.2%} exceeds ceiling "
                f"{config.error_rate_ceiling:.2%}; first errors: {stats.samples[:skipped]}")


def read_chunks_from_path(path, config: ParserConfig = ParserConfig(),
                          stats: IngestStats | None = None, start=0, stop=None):
    """read_chunks over a file path, closing the stream when exhausted.

    ``start`` and ``stop`` limit a plain file to its bytes ``start:stop``,
    which begin at a line start; a gzipped file has no byte ranges
    (ValueError). A range past byte 0 is read without ``head`` (its first
    line is a row, counted as skipped if malformed) and a range with a
    ``stop`` without ``tail``.
    """
    with open_trace_file(path, start, stop) as stream:
        yield from read_chunks(stream, config, stats, head=not start, tail=stop is None)


def day_slot(timestamps, tz_offset_s: int = DEFAULT_TZ_OFFSET_S):
    """(day, slot) of epoch timestamps, a scalar or an int64 array.

    ``day`` is the local date's ``toordinal()`` and ``slot`` its 15-minute
    interval, half-open [t, t + 900) in local time.
    """
    # in place where it can, so an array input costs two temporaries
    day = np.asarray(timestamps, dtype=np.int64) + tz_offset_s
    day //= INTERVAL_SECONDS
    slot = day % SLOTS_PER_DAY
    day //= SLOTS_PER_DAY
    day += _EPOCH_ORDINAL
    return day, slot
