"""Chunked trace-file ingestion.

Reads delimited GPS trace files (optionally gzipped) in fixed-size chunks,
validates each row, and hands each chunk on as one TraceBatch of columns.
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
        day_part, time_part = label.split("T")
        h, m = time_part.split(":")
        return cls(datetime.date.fromisoformat(day_part),
                   (int(h) * 3600 + int(m) * 60) // INTERVAL_SECONDS)


@dataclass(frozen=True)
class ParserConfig:
    """Trace-file layout and ingest policy."""

    columns: tuple = DEFAULT_COLUMNS
    delimiter: str = ","
    tz_offset_s: int = DEFAULT_TZ_OFFSET_S
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
    if len(fields) != len(config.columns):
        raise ParseError(f"expected {len(config.columns)} fields, got {len(fields)}")
    row = dict(zip(config.columns, fields))
    try:
        ts = int(row["timestamp"])
        lat = float(row["lat"])
        lon = float(row["lon"])
    except ValueError as exc:
        raise ParseError(f"malformed numeric field: {exc}") from None
    driver, order = row["driver_id"], row["order_id"]
    if not driver or not order:
        raise RecordValidationError("empty driver_id or order_id")
    if ts <= 0:
        raise RecordValidationError(f"non-positive timestamp {ts}")
    if not -90.0 <= lat <= 90.0:
        raise RecordValidationError(f"latitude {lat} out of range")
    if not -180.0 <= lon <= 180.0:
        raise RecordValidationError(f"longitude {lon} out of range")
    return TraceRecord(driver, order, ts, lat, lon)


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
    reader = csv.reader(source, delimiter=config.delimiter)
    chunk: list[TraceRecord] = []
    first = True
    row_num = 0
    try:
        for row_num, fields in enumerate(reader, start=1):
            if not fields:
                continue
            if first:
                first = False
                if _looks_like_header(fields, config):
                    continue
            try:
                chunk.append(parse_record(fields, config))
                stats.parsed += 1
            except ParseError as exc:
                stats.parse_errors += 1
                if len(stats.samples) < 10:
                    stats.samples.append(f"row {row_num}: {exc}")
            except RecordValidationError as exc:
                stats.validation_errors += 1
                if len(stats.samples) < 10:
                    stats.samples.append(f"row {row_num}: {exc}")
            if len(chunk) == config.chunk_size:
                _check_error_rate(stats, config)
                yield TraceBatch.from_records(chunk)
                chunk = []
    except (OSError, EOFError, zlib.error, UnicodeDecodeError, csv.Error) as exc:
        raise IngestError(f"read failure after row {row_num}: {exc}") from exc
    _check_error_rate(stats, config)
    if chunk:
        yield TraceBatch.from_records(chunk)


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
