"""Chunked trace-file ingestion.

Reads delimited GPS trace files (optionally gzipped) in fixed-size chunks,
tokenizes each block of lines with ``np.loadtxt`` (``csv.reader`` where it
must), validates the block as column arrays, and hands each chunk on as one
TraceBatch of columns.
Also maps timestamps to day-local 15-minute intervals.
"""

from __future__ import annotations

import csv
import datetime
import gzip
import io
import itertools
import logging
import re
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import DataQualityError, IngestError, ParseError, RecordValidationError

logger = logging.getLogger(__name__)

SECONDS_PER_DAY = 86400
INTERVAL_SECONDS = 900
SLOTS_PER_DAY = SECONDS_PER_DAY // INTERVAL_SECONDS  # 96

DEFAULT_COLUMNS = ("driver_id", "order_id", "timestamp", "lon", "lat")
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
    """Trace-file layout and ingest policy."""

    columns: tuple = DEFAULT_COLUMNS
    delimiter: str = ","
    chunk_size: int = DEFAULT_CHUNK_SIZE
    error_rate_ceiling: float = DEFAULT_ERROR_RATE_CEILING

    def __post_init__(self):
        if set(self.columns) != set(DEFAULT_COLUMNS):
            raise ValueError(f"columns must be a permutation of {DEFAULT_COLUMNS}")
        if not isinstance(self.chunk_size, int) or isinstance(self.chunk_size, bool) \
                or self.chunk_size < 1:
            raise ValueError(f"chunk_size must be an integer >= 1, not {self.chunk_size!r}")


@dataclass
class IngestStats:
    """Row-level bookkeeping; parsed + skipped equals total input rows."""

    parsed: int = 0
    parse_errors: int = 0
    validation_errors: int = 0
    samples: list = field(default_factory=list)

    @property
    def skipped(self) -> int:
        return self.parse_errors + self.validation_errors

    @property
    def total(self) -> int:
        return self.parsed + self.skipped


def _parse_rows(rows, config: ParserConfig):
    """Convert and validate a block of rows, each a list of field strings.

    Returns (TraceBatch of the valid rows in order, [(position, error)] in
    row order), where ``error`` is the ParseError or RecordValidationError
    of the first rule the row at ``position`` breaks: field count; then
    timestamp, lat and lon conversion; then the value rules of
    ``_validate``.
    """
    width = len(config.columns)
    errors = {}
    positions = range(len(rows))
    if set(map(len, rows)) - {width}:
        for pos, r in enumerate(rows):
            if len(r) != width:
                errors[pos] = ParseError(f"expected {width} fields, got {len(r)}")
        positions = [pos for pos in positions if pos not in errors]
        rows = [rows[pos] for pos in positions]
    column = dict(zip(config.columns, zip(*rows) if rows else [()] * width))
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


def _add_rows(batch, errors, kept, rows, nums, config: ParserConfig):
    """Parse the field lists ``rows``, numbered ``nums``, into ``batch``,
    whose rows are numbered ``kept``, and its [(number, error)] ``errors``,
    keeping row order in both."""
    more, failed = _parse_rows(rows, config)
    batch = TraceBatch.concat([batch, more])
    if kept.size and kept[-1] > nums[0]:  # rows of ``more`` come before some of ``batch``
        dropped = [pos for pos, _ in failed]
        kept = np.concatenate([kept, np.delete(np.asarray(nums, dtype=np.int64), dropped)])
        batch = batch[np.argsort(kept, kind="stable")]
    errors += ((nums[pos], exc) for pos, exc in failed)
    return batch, sorted(errors, key=lambda error: error[0])


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


_COLUMN_TYPES = {"driver_id": object, "order_id": object, "timestamp": np.int64,
                 "lat": np.float64, "lon": np.float64}


def _load_lines(lines, config: ParserConfig):
    """Tokenize and convert a block of lines, none holding a ``"``, with np.loadtxt.

    Blank lines are dropped. Returns (records in ``config.columns`` order,
    index in ``lines`` of each record, indices in ``lines`` of the lines
    left to csv.reader): the lines np.loadtxt rejects (a wrong field count,
    a number it will not parse or an int64 overflow), or every line when
    one is longer than csv's field limit, where csv.reader raises and
    np.loadtxt would not.
    """
    dtype = np.dtype([(name, _COLUMN_TYPES[name]) for name in config.columns])
    lengths = list(map(len, lines))
    if lines and max(lengths) > csv.field_size_limit():
        return np.empty(0, dtype), [], range(len(lines))
    at = range(len(lines))
    if lines and min(lengths) <= 2:  # room for a blank line
        at = [i for i, line in enumerate(lines) if line.rstrip("\r\n")]
        lines = [lines[i] for i in at]

    def load(rows):
        return np.loadtxt(rows, dtype=dtype, delimiter=config.delimiter, comments=None,
                          quotechar=None, ndmin=1) if rows else np.empty(0, dtype)

    rejected, lo, table = [], 0, np.empty(0, dtype)
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


def _looks_like_header(fields, config: ParserConfig) -> bool:
    if len(fields) != len(config.columns):
        return True
    try:
        int(fields[config.columns.index("timestamp")])
        return False
    except ValueError:
        return True


def open_trace_file(path, start=0, stop=None):
    """Open a trace file as a text stream; transparently handles gzip.

    ``start`` and ``stop`` limit a plain file to its bytes ``start:stop``
    (``stop`` None: to its end).
    """
    if str(path).endswith(".gz"):
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8", newline="")
    if start == 0 and stop is None:
        return open(path, "r", encoding="utf-8", newline="")
    raw = open(path, "rb", buffering=0)
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


def read_chunks(source, config: ParserConfig = ParserConfig(), stats: IngestStats | None = None):
    """Yield TraceBatches of at most ``config.chunk_size`` parsed rows.

    ``source`` is an open text stream. Malformed rows are counted on
    ``stats`` and skipped; the run aborts with DataQualityError once the
    error rate exceeds the configured ceiling (checked per chunk, after a
    minimum of 1000 rows). A stream that cannot be read or decoded raises
    IngestError.

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
    first = True  # no record read yet, so the next one may be a header
    row_num = 0  # the last row read

    def csv_rows(block, rejected, q, start):
        """(field lists, numbers) of the csv records of ``block``'s lines
        ``rejected`` and of its lines from ``q`` on, read on into ``lines``
        while a quoted field is open; blank records and a header are skipped."""
        nonlocal first, row_num
        reader = csv.reader(itertools.chain((block[i] for i in rejected),
                                            itertools.islice(block, q, None), lines),
                            delimiter=config.delimiter)
        stop = len(rejected) + len(block) - q  # lines of the block
        rows, kept = [], []
        for num in itertools.chain((start + i for i in rejected), itertools.count(start + q)):
            row_num = num - 1  # the last record read in full
            if reader.line_num >= stop:
                break
            fields = next(reader, None)
            if fields is None:
                break
            if fields and not (first and _looks_like_header(fields, config)):
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
            start, block = row_num + 1, []
            try:
                block.extend(itertools.islice(lines, size))
            except Exception as exc:  # raised again once the lines read are parsed
                if not block:
                    raise
                lines = _raising(exc)
            q = len(block)
            if '"' in "".join(block):
                q = next(i for i, line in enumerate(block) if '"' in line)
            table, at, rejected = _load_lines(block[:q], config)
            first = first and not len(table)
            batch, failed = _validate(table["driver_id"], table["order_id"],
                                      table["timestamp"], table["lat"], table["lon"])
            errors = [(start + at[i], exc) for i, exc in sorted(failed.items())]
            rows, nums = csv_rows(block, rejected, q, start)
            if rows:
                kept = np.delete(np.asarray(at, dtype=np.int64), list(failed)) + start
                batch, errors = _add_rows(batch, errors, kept, rows, nums, config)
            stats.parsed += len(batch)
            for num, exc in errors:
                if isinstance(exc, ParseError):
                    stats.parse_errors += 1
                else:
                    stats.validation_errors += 1
                if len(stats.samples) < 10:
                    stats.samples.append(f"row {num}: {exc}")
            if len(batch):
                chunk.append(batch)
            if not block:
                break
            if len(batch) == need:
                _check_error_rate(stats, config)
                yield TraceBatch.concat(chunk)
                chunk = []
    except (OSError, EOFError, zlib.error, UnicodeDecodeError, csv.Error) as exc:
        raise IngestError(f"read failure after row {row_num}: {exc}") from exc
    _check_error_rate(stats, config)
    if chunk:
        yield TraceBatch.concat(chunk)


def _check_error_rate(stats: IngestStats, config: ParserConfig):
    if stats.total >= CEILING_MIN_ROWS:
        rate = stats.skipped / stats.total
        if rate > config.error_rate_ceiling:
            raise DataQualityError(
                f"row error rate {rate:.2%} exceeds ceiling "
                f"{config.error_rate_ceiling:.2%}; first errors: {stats.samples}"
            )


def read_chunks_from_path(path, config: ParserConfig = ParserConfig(),
                          stats: IngestStats | None = None, start=0, stop=None):
    """read_chunks over a file path, closing the stream when exhausted.

    ``start`` and ``stop`` limit a plain file to its bytes ``start:stop``,
    which begin at a line start. Past byte 0 the header rule is off: the
    range is read as if a header line preceded it, so its first line is a
    row (counted as skipped if malformed), and row numbers count that header.
    """
    with open_trace_file(path, start, stop) as stream:
        if start:
            stream = itertools.chain([config.delimiter.join(config.columns) + "\n"], stream)
        yield from read_chunks(stream, config, stats)


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
