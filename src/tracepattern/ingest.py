"""Chunked trace-file ingestion.

Reads delimited GPS trace files (optionally gzipped) in fixed-size chunks,
converts and validates each block of rows as column arrays, and hands each
chunk on as one TraceBatch of columns.
Also maps timestamps to day-local 15-minute intervals.
"""

from __future__ import annotations

import csv
import datetime
import gzip
import io
import logging
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
_CEILING_MIN_ROWS = 1000

_EPOCH_ORDINAL = datetime.date(1970, 1, 1).toordinal()


@dataclass(frozen=True)
class TraceRecord:
    """One GPS ping."""

    driver_id: str
    order_id: str
    timestamp: int
    lat: float
    lon: float


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
    def from_records(cls, records) -> "TraceBatch":
        return cls(np.array([r.order_id for r in records], dtype=object),
                   np.array([r.timestamp for r in records], dtype=np.int64),
                   np.array([r.lat for r in records], dtype=np.float64),
                   np.array([r.lon for r in records], dtype=np.float64))

    @classmethod
    def concat(cls, batches) -> "TraceBatch":
        """One batch holding the rows of ``batches`` in order."""
        if not batches:
            return cls.from_records([])
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
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")


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


def parse_record(fields, config: ParserConfig = ParserConfig()) -> TraceRecord:
    """Parse one delimited row (a string or a pre-split field list).

    Raises ParseError on malformed rows and RecordValidationError on
    out-of-range values.
    """
    if isinstance(fields, str):
        fields = fields.rstrip("\r\n").split(config.delimiter)
    batch, errors = _parse_rows([fields], config)
    if errors:
        raise errors[0][1]
    return TraceRecord(fields[config.columns.index("driver_id")], batch.order_id[0],
                       int(batch.timestamp[0]), float(batch.lat[0]), float(batch.lon[0]))


def _parse_rows(rows, config: ParserConfig):
    """Parse and validate a block of rows, each a list of field strings.

    Returns (TraceBatch of the valid rows in order, [(position, error)] in
    row order), where ``error`` is the ParseError or RecordValidationError
    of the first rule the row at ``position`` breaks: field count; then
    timestamp, lat and lon conversion; then empty id, timestamp range,
    latitude range and longitude range.
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
    bad = np.zeros(len(rows), dtype=bool)

    def reject(rule, error):
        bad[rule] = True
        for i in np.flatnonzero(rule).tolist():
            errors.setdefault(positions[i], error(i))

    converted = []
    for name, kind in (("timestamp", int), ("lat", float), ("lon", float)):
        values, failed = _convert(column[name], kind)
        for i, exc in failed.items():
            bad[i] = True
            errors.setdefault(positions[i], ParseError(f"malformed numeric field: {exc}"))
        converted.append(values)
    ts_int, lat_float, lon_float = converted
    ts = np.array(ts_int, dtype=object)  # range-checked before the int64 cast
    lat = np.array(lat_float, dtype=np.float64)
    lon = np.array(lon_float, dtype=np.float64)
    order = np.array(column["order_id"], dtype=object)

    reject((np.array(column["driver_id"], dtype=object) == "") | (order == ""),
           lambda i: RecordValidationError("empty driver_id or order_id"))
    reject(ts <= 0, lambda i: RecordValidationError(f"non-positive timestamp {ts_int[i]}"))
    reject(ts >= MAX_TIMESTAMP,
           lambda i: RecordValidationError(f"timestamp {ts_int[i]} past year 9999"))
    reject(~((lat >= -90.0) & (lat <= 90.0)),
           lambda i: RecordValidationError(f"latitude {lat_float[i]} out of range"))
    reject(~((lon >= -180.0) & (lon <= 180.0)),
           lambda i: RecordValidationError(f"longitude {lon_float[i]} out of range"))

    keep = ~bad
    batch = TraceBatch(order[keep], ts[keep].astype(np.int64), lat[keep], lon[keep])
    return batch, sorted(errors.items())


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


def _looks_like_header(fields, config: ParserConfig) -> bool:
    if len(fields) != len(config.columns):
        return True
    try:
        int(fields[config.columns.index("timestamp")])
        return False
    except ValueError:
        return True


def open_trace_file(path):
    """Open a trace file as a text stream; transparently handles gzip."""
    if str(path).endswith(".gz"):
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8", newline="")
    return open(path, "r", encoding="utf-8", newline="")


def read_chunks(source, config: ParserConfig = ParserConfig(), stats: IngestStats | None = None):
    """Yield TraceBatches of at most ``config.chunk_size`` parsed rows.

    ``source`` is an open text stream. Malformed rows are counted on
    ``stats`` and skipped; the run aborts with DataQualityError once the
    error rate exceeds the configured ceiling (checked per chunk, after a
    minimum of 1000 rows). A stream that cannot be read or decoded raises
    IngestError.
    """
    if stats is None:
        stats = IngestStats()
    records = enumerate(csv.reader(source, delimiter=config.delimiter), start=1)
    chunk: list[TraceBatch] = []
    first = True
    row_num = 0
    try:
        while True:
            # a block never crosses a chunk boundary, so the error rate is
            # checked after the same rows as a row-at-a-time reader would
            need = config.chunk_size - sum(map(len, chunk))
            rows, row_nums = [], []
            for row_num, fields in records:
                if not fields:
                    continue
                if first:
                    first = False
                    if _looks_like_header(fields, config):
                        continue
                rows.append(fields)
                row_nums.append(row_num)
                if len(rows) == need:
                    break
            batch, errors = _parse_rows(rows, config)
            stats.parsed += len(batch)
            for pos, exc in errors:
                if isinstance(exc, ParseError):
                    stats.parse_errors += 1
                else:
                    stats.validation_errors += 1
                if len(stats.samples) < 10:
                    stats.samples.append(f"row {row_nums[pos]}: {exc}")
            if len(batch):
                chunk.append(batch)
            if len(rows) < need:  # end of input
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
    if stats.total >= _CEILING_MIN_ROWS:
        rate = stats.skipped / stats.total
        if rate > config.error_rate_ceiling:
            raise DataQualityError(
                f"row error rate {rate:.2%} exceeds ceiling "
                f"{config.error_rate_ceiling:.2%}; first errors: {stats.samples}"
            )


def read_chunks_from_path(path, config: ParserConfig = ParserConfig(),
                          stats: IngestStats | None = None):
    """read_chunks over a file path, closing the stream when exhausted."""
    with open_trace_file(path) as stream:
        yield from read_chunks(stream, config, stats)


def day_slot(timestamps, tz_offset_s: int = DEFAULT_TZ_OFFSET_S):
    """(day, slot) of epoch timestamps, a scalar or an int64 array.

    ``day`` is the local date's ``toordinal()`` and ``slot`` its 15-minute
    interval, half-open [t, t + 900) in local time.
    """
    day, slot = np.divmod((np.asarray(timestamps, dtype=np.int64) + tz_offset_s)
                          // INTERVAL_SECONDS, SLOTS_PER_DAY)
    return day + _EPOCH_ORDINAL, slot


def assign_interval(timestamp: int, tz_offset_s: int = DEFAULT_TZ_OFFSET_S) -> IntervalIndex:
    """Map an epoch timestamp to its day-local 15-minute interval."""
    day, slot = day_slot(timestamp, tz_offset_s)
    return IntervalIndex(datetime.date.fromordinal(int(day)), int(slot))
