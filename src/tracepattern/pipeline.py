"""End-to-end orchestration: ingest, correct, match, aggregate, analyze,
export. Produces a manifest recording configuration, counts, and output
digests; reruns on identical inputs are byte-identical.
"""

from __future__ import annotations

import contextlib
import csv
import datetime
import gzip
import itertools
import logging
import math
import numbers
import os
import pickle
import stat
import tempfile
from dataclasses import dataclass, field, asdict

import numpy as np

from . import congestion as cg
from . import export as ex
from . import matching, network, parallel, patterns
from .errors import ComparisonError, ConfigError, ExportError
from .ingest import (DEFAULT_CHUNK_SIZE, DEFAULT_ERROR_RATE_CEILING, DEFAULT_TZ_OFFSET_S,
                     SECONDS_PER_DAY, SLOTS_PER_DAY, IngestStats, IntervalIndex,
                     ParserConfig, TraceBatch, check_error_rate, read_chunks_from_path)

logger = logging.getLogger(__name__)


@dataclass
class RunConfig:
    traces_path: str
    network_path: str
    out_dir: str
    tz_offset_s: int = DEFAULT_TZ_OFFSET_S
    chunk_size: int = DEFAULT_CHUNK_SIZE
    max_dist_km: float = network.DEFAULT_MAX_DIST_KM
    pair_dt_max_s: float = patterns.DEFAULT_PAIR_DT_MAX_S
    anomaly_kmh: float = patterns.DEFAULT_ANOMALY_KMH
    missing_fraction: float = patterns.DEFAULT_MISSING_FRACTION
    error_rate_ceiling: float = DEFAULT_ERROR_RATE_CEILING
    offset: tuple | None = None  # (dlat, dlon); None = estimate
    offset_sample_size: int = matching.DEFAULT_MIN_SAMPLE
    date_groups: dict = field(default_factory=dict)  # scenario -> [iso dates]

    @property
    def parser(self) -> ParserConfig:
        return ParserConfig(chunk_size=self.chunk_size,
                            error_rate_ceiling=self.error_rate_ceiling)

    def validate(self):
        # settings from a YAML config arrive with whatever type it spelled
        for kind, word, names in (
                (int, "an integer", ("chunk_size", "tz_offset_s", "offset_sample_size")),
                (numbers.Real, "a number", ("max_dist_km", "pair_dt_max_s", "anomaly_kmh",
                                            "error_rate_ceiling", "missing_fraction"))):
            for name in names:
                value = getattr(self, name)
                if not isinstance(value, kind) or isinstance(value, bool):
                    raise ConfigError(f"{name} must be {word}, not {value!r}")
        for name in ("chunk_size", "offset_sample_size", "max_dist_km",
                     "pair_dt_max_s", "anomaly_kmh", "error_rate_ceiling"):
            if not 0 < getattr(self, name) < math.inf:  # NaN fails too
                raise ConfigError(f"{name} must be positive and finite")
        if abs(self.tz_offset_s) >= SECONDS_PER_DAY:
            raise ConfigError("tz_offset_s must be less than one day in magnitude")
        if not 0.0 <= self.missing_fraction <= 1.0:
            raise ConfigError("missing_fraction must be in [0, 1]")
        off = self.offset
        if off is not None and not (
                isinstance(off, (list, tuple)) and len(off) == 2
                and all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                        and math.isfinite(v) for v in off)):
            raise ConfigError(f"offset must be null or two finite numbers, dlat and dlon, "
                              f"not {off!r}")
        check_date_groups(self.date_groups)
        if not os.path.exists(self.traces_path):
            raise ConfigError(f"traces file not found: {self.traces_path}")
        if not os.path.exists(self.network_path):
            raise ConfigError(f"network file not found: {self.network_path}")


def check_date_groups(date_groups):
    """ConfigError unless ``date_groups`` maps names to lists of ISO date
    strings, no date in two groups."""
    if not isinstance(date_groups, dict):
        raise ConfigError(f"date_groups must map group names to lists of dates, "
                          f"not {date_groups!r}")
    seen = {}
    for group, dates in date_groups.items():
        if not isinstance(group, str) or not isinstance(dates, list):
            raise ConfigError(f"date_groups must map group names to lists of dates; "
                              f"{group!r} maps to {dates!r}")
        for d in dates:
            try:
                day = datetime.date.fromisoformat(d)
            except (TypeError, ValueError):
                raise ConfigError(f"date_groups {group!r}: {d!r} is not an ISO date "
                                  f"string (quote dates in YAML)") from None
            if day in seen:
                raise ConfigError(f"date {d} in both {seen[day]!r} and {group!r}")
            seen[day] = group


STAGES = ("load_network", "ingest_and_match", "build_tensors", "clean", "analyze", "export")

# A trace file of at least this many bytes, inflated, is parsed and matched
# on two CPUs when two are available (see ingest_and_match).
SPLIT_TRACE_BYTES = 8 << 20


def run_pipeline(config: RunConfig) -> dict:
    """Execute the full pipeline and write all artifacts to ``out_dir``.

    Returns the manifest (also written as ``manifest.json``). A failed run
    records the stage it failed in as ``failed_stage``. A large trace
    file is parsed and matched on two CPUs (see ``ingest_and_match``); the
    outputs and the manifest are the same bytes either way.
    """
    config.validate()
    os.makedirs(config.out_dir, exist_ok=True)
    done = []
    manifest = {"config": asdict(config), "stages_completed": done}
    try:
        net = network.load_network(config.network_path)
        done.append("load_network")

        offset, stats, builder = ingest_and_match(config, net)
        done.append("ingest_and_match")

        flow, speed_raw = builder.finalize()
        done.append("build_tensors")

        cleaning = patterns.clean_speed_matrix(speed_raw, config.missing_fraction,
                                               config.anomaly_kmh)
        done.append("clean")
        analysis = analyze(flow, cleaning.speeds, net, config)
        done.append("analyze")

        meta = {"interval_seconds": 900, "tz_offset_s": config.tz_offset_s,
                "anomaly_threshold_kmh": config.anomaly_kmh,
                "missing_fraction_threshold": config.missing_fraction,
                "dropped_road_ids": cleaning.dropped_road_ids,
                "anomaly_rate": cleaning.anomaly_rate}
        names = ["flow.csv", "speed_raw.csv", "speed_clean.csv"]
        for name, matrix in zip(names, (flow, speed_raw, cleaning.speeds)):
            ex.write_matrix_csv(matrix, os.path.join(config.out_dir, name), meta)
        names += write_analysis(analysis, flow, config.out_dir, meta)
        digests = {name: ex.sha256_file(os.path.join(config.out_dir, name)) for name in names}
        done.append("export")
        manifest.update({
            "offset": {"dlat": offset.dlat, "dlon": offset.dlon,
                       "source": "explicit" if config.offset is not None else "estimated"},
            "counts": {
                "rows_total": stats.total,
                "parsed": stats.parsed,
                "skipped_rows": stats.skipped,
                "offset_skipped": stats.offset_skipped,
                "matched": stats.matched,
                "unmatched": stats.unmatched,
            },
            "dropped_road_ids": cleaning.dropped_road_ids,
            "flagged_road_ids": cleaning.flagged_road_ids,
            "anomaly_count": cleaning.anomaly_count,
            "anomaly_rate": cleaning.anomaly_rate,
            "digests": digests,
        })
    except Exception as exc:
        manifest["failed_stage"] = STAGES[len(done)]
        manifest["error"] = str(exc)
        ex.write_json(manifest, os.path.join(config.out_dir, "manifest.json"))
        raise
    ex.write_json(manifest, os.path.join(config.out_dir, "manifest.json"))
    return manifest


def ingest_and_match(config: RunConfig, net):
    """Read, correct and match every row of the trace file into a new
    TensorBuilder. Returns (offset, IngestStats, builder); the stats also
    count where the parsed rows went.

    ingest_range reads the file as one byte range, or as two on two CPUs
    when it is at least SPLIT_TRACE_BYTES and holds no ``"``: cut at its
    first line start at or after the middle byte, a gzipped one (sized by
    its trailer) in a plain copy under TMPDIR, deleted before this returns.
    The offset comes from the head of the front, and a forked child reads
    the back range. Each side compacts its TensorBuilder to pairs on its
    own CPU, and the child hands back its (IngestStats, TensorBuilder) as
    one pickle. Both are merged after the front's and the error-rate
    checks are replayed, so the outcome is that of one range. The file
    (not the copy) is read as one range if a side raises, the child dies
    or the merge refuses the join, and is not cut if the front's offset or
    the copy fails. One debug line says which path ran, and for a split
    whether the back half came as pairs or as rows.
    """
    with contextlib.ExitStack() as stack:  # deletes a plain copy before a one-range read
        try:
            path, mid = _split_source(config.traces_path, stack)
            return _ingest_split(config, net, path, mid)
        except _NoSplit as why:
            logger.debug("ingest on one CPU: %s", why)
    offset, run = ingest_range(config, net)
    return (offset, *run())


def _ingest_split(config, net, path, mid):
    """ingest_and_match of ``path`` cut at ``mid``; _NoSplit if the front's offset fails."""
    try:
        offset, front = ingest_range(config, net, path, stop=mid)
    except Exception as exc:
        raise _NoSplit(f"the offset from the front half failed ({exc!r})") from None

    def front_pairs():
        stats, builder = front()
        builder.compact()  # on this CPU, while the child works
        return stats, builder

    def back(tmp):
        stats, builder = ingest_range(config, net, path, mid, offset=offset)[1]()
        builder.compact()
        # protocol 5 writes the builder's arrays without copying them
        pickle.dump((stats, builder), tmp, protocol=pickle.HIGHEST_PROTOCOL)

    def join(front_result, tmp):
        stats, builder = front_result
        back_stats, back_builder = pickle.load(tmp)
        handed = "pairs" if back_builder.paired else "rows"
        stats.merge(back_stats)
        builder.merge(back_builder)
        copy = "" if path == config.traces_path else " of a plain copy of the gzip file"
        logger.debug("ingest split at byte %d of %d%s; the back half came as %s",
                     mid, os.path.getsize(path), copy, handed)
        return stats, builder

    def one_range():
        logger.debug("ingest on one CPU: the split failed")
        return ingest_range(config, net, offset=offset)[1]()

    stats, builder = parallel.fork_split(front_pairs, back, join, one_range)
    check_error_rate(stats, config.parser)
    return offset, stats, builder


def ingest_range(config: RunConfig, net, path=None, start=0, stop=None, offset=None):
    """(offset, run) of the bytes ``start:stop`` of the trace file ``path``
    (None: the configured one; ``stop`` None: to its end): the offset given,
    configured or estimated from the range's head, and ``run()``, which reads,
    corrects and matches the range into (IngestStats, TensorBuilder)."""
    stats = IngestStats()
    chunks = read_chunks_from_path(path or config.traces_path, config.parser, stats, start, stop)
    sampled = []
    if offset is None and config.offset is not None:
        offset = matching.OffsetVector(*config.offset)
    elif offset is None:
        n = config.offset_sample_size
        for chunk in chunks:
            sampled.append(chunk)
            if sum(map(len, sampled)) >= n:
                break
        offset = matching.estimate_offset(TraceBatch.concat(sampled)[:n], net, min_sample=n)

    def run():
        builder = patterns.TensorBuilder(net.ordered_ids(), config.pair_dt_max_s,
                                         config.tz_offset_s)
        for chunk in itertools.chain(sampled, chunks):
            shifted, skipped = matching.apply_offset(chunk, offset)
            matched, unmatched = matching.match_batch(shifted, net, config.max_dist_km)
            builder.add(matched)
            stats.offset_skipped += skipped
            stats.matched += len(matched)
            stats.unmatched += unmatched
        return stats, builder

    return offset, run


class _NoSplit(Exception):
    """Why a trace file is read on one CPU."""


def _split_source(path, stack):
    """(plain file, byte) to split the trace file ``path`` at: ``path``
    itself and its _split_byte, or for a gzipped file a plain copy that
    ``stack`` deletes on exit and the copy's _split_byte. Raises _NoSplit
    unless two CPUs are available, the file holds no ``"`` and the split
    can be tried."""
    if not parallel.two_cpus():
        raise _NoSplit("one CPU available")
    if str(path).endswith(".gz"):
        _split_size(path, gzipped=True)
        try:
            copy = stack.enter_context(tempfile.NamedTemporaryFile(
                prefix="tracepattern-", suffix=".csv"))
            _inflate(path, copy)
        except _NoSplit:
            raise
        except Exception as exc:  # a truncated or corrupt stream, a full disk
            raise _NoSplit(f"the gzip copy failed ({exc!r})") from None
        return copy.name, _split_byte(copy.name)
    mid = _split_byte(path)
    with open(path, "rb") as fh:
        _scan_for_quotes(fh)
    return path, mid


def _split_size(path, gzipped=False):
    """The size of ``path``, for a gzipped file its inflated size as the
    trailer gives it (modulo 2**32, and of the last member only). Raises
    _NoSplit unless it is a regular file and that size is at least
    SPLIT_TRACE_BYTES."""
    info = os.stat(path)  # before opening: opening a FIFO would wait for a writer
    if not stat.S_ISREG(info.st_mode):
        raise _NoSplit("not a regular file")
    size = info.st_size
    if gzipped:
        with open(path, "rb") as fh:
            fh.seek(max(size - 4, 0))
            size = int.from_bytes(fh.read(4), "little") if size >= 18 else 0
    if size < max(SPLIT_TRACE_BYTES, 2):
        raise _NoSplit(f"below the size floor of {SPLIT_TRACE_BYTES} bytes")
    return size


def _inflate(path, out):
    """Write the gzipped file ``path`` inflated into the binary file ``out``;
    _NoSplit at the first ``"``."""
    with gzip.open(path, "rb") as fh:
        _scan_for_quotes(fh, out)
    out.flush()


def _scan_for_quotes(fh, out=None):
    """Read the binary file ``fh`` to its end, writing it into ``out`` if
    given; _NoSplit at the first ``"``."""
    block = bytearray(1 << 20)
    while n := fh.readinto(block):
        if block.find(b'"', 0, n) >= 0:
            raise _NoSplit('a " in the file')
        if out is not None:
            out.write(memoryview(block)[:n])


def _split_byte(path):
    """The first line start at or after the middle byte of the plain file
    ``path``. Raises _NoSplit unless it is a regular file of at least
    SPLIT_TRACE_BYTES with a line start past the middle."""
    size = _split_size(path)
    with open(path, "rb") as fh:
        mid = parallel.line_start(fh, size // 2)
    if mid >= size:
        raise _NoSplit("no line start after the middle byte")
    return mid


def analyze_saved(config: RunConfig, flow_path, speed_path):
    """The ``analyze`` command: clean the raw speed matrix CSV, analyze it
    with the flow matrix CSV and write_analysis into ``config.out_dir``.
    ComparisonError when their interval axes differ, a flow road is not in
    the network, a flow cell is not a finite whole count >= 0 or an f² is
    not finite."""
    config.validate()
    net = network.load_network(config.network_path)
    flow = ex.read_matrix_csv(flow_path)
    speed_raw = ex.read_matrix_csv(speed_path)
    if flow.intervals != speed_raw.intervals:
        raise ComparisonError("the flow and speed matrices have different interval axes")
    lacking = next((rid for rid in flow.road_ids if rid not in net.segments), None)
    if lacking is not None:
        raise ComparisonError(f"road {lacking} of the flow matrix is not in the network")
    v = flow.values
    counts = np.min(v, initial=0) >= 0 and np.max(v, initial=0) < np.inf  # a NaN cell: NaN min
    if counts:  # whole numbers, by blocks of rows: no grid-sized temporary
        rows = max((1 << 16) // max(v.shape[1], 1), 1)
        counts = all(np.array_equal(np.floor(block), block)
                     for block in (v[r:r + rows] for r in range(0, len(v), rows)))
    if not counts:
        i, j = np.argwhere(~((v >= 0) & np.isfinite(v) & (np.floor(v) == v)))[0]
        raise ComparisonError(f"road {flow.road_ids[i]} of the flow matrix has flow {v[i, j]} "
                              f"at {flow.intervals[j].label()}, not a finite count >= 0")
    cleaning = patterns.clean_speed_matrix(speed_raw, config.missing_fraction,
                                           config.anomaly_kmh)
    del speed_raw  # its only reference: free it before the analysis
    analysis = analyze(flow, cleaning.speeds, net, config)
    os.makedirs(config.out_dir, exist_ok=True)
    write_analysis(analysis, flow, config.out_dir)


_SERIES_HEADER = ["interval", "network_inrix", "cf_total"]


def write_analysis(analysis, flow, out, meta=None) -> list:
    """Write what ``analyze`` returned into the directory ``out``; returns
    the names written, in order. ``inrix.csv`` gets a ``meta`` sidecar if given."""
    scores = analysis["scores"]
    ex.write_matrix_csv(scores.per_road, os.path.join(out, "inrix.csv"), meta)
    with open(os.path.join(out, "network_series.csv"), "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_SERIES_HEADER)
        for lbl, dc, f in zip(flow.interval_labels(), scores.network, flow.values.sum(axis=0)):
            w.writerow([lbl, "" if np.isnan(dc) else repr(float(dc)), int(f)])
    with open(os.path.join(out, "daily.csv"), "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["day", "cf_total", "dc_mean", "partial"])
        for agg in analysis["daily"]:
            dc = "" if np.isnan(agg.dc_mean) else repr(agg.dc_mean)
            w.writerow([agg.day.isoformat(), agg.cf_total, dc, int(agg.partial)])
    ex.write_json(analysis["fitting"], os.path.join(out, "fitting.json"))
    return ["inrix.csv", "network_series.csv", "daily.csv", "fitting.json"]


def analyze(flow, cleaned_speeds, net, config: RunConfig) -> dict:
    """Congestion scores, daily aggregates, and per-scenario fitting
    indices (raw and after per-day min-max normalization). Raises
    ComparisonError when a fitting index is not finite, as when a series
    is too large to square in float64."""
    scores = cg.score_matrix(cleaned_speeds, net, config.anomaly_kmh)
    daily = cg.daily_aggregates(flow, scores)
    fitting = {}
    try:
        days, dc = cg.day_matrix(scores.per_road, scores.network)
        _, cf = cg.day_matrix(flow, flow.values.sum(axis=0))
    except ValueError:
        return {"scores": scores, "daily": daily, "fitting": fitting}
    groups = resolve_groups(config.date_groups, days)
    for group, member_days in sorted(groups.items()):
        rows = [i for i, d in enumerate(days) if d in member_days]
        if len(rows) < 2:
            continue
        entry = {}
        for label, mat in (("dc", dc[rows]), ("cf", cf[rows])):
            if np.isnan(mat).any():
                continue
            with np.errstate(over="ignore", invalid="ignore"):  # checked below
                fit = cg.fitting_index(mat)
                norm = np.stack([cg.min_max_normalize(r)[0] for r in mat])
                fit_n = cg.fitting_index(norm)
            if not (math.isfinite(fit.value) and math.isfinite(fit_n.value)):
                raise ComparisonError(f"f2 of the {label} series of date group {group!r} "
                                      "is not finite: its squares overflow float64")
            entry[label] = {"f2": fit.value, "degenerate": fit.degenerate,
                            "f2_normalized": fit_n.value,
                            "degenerate_normalized": fit_n.degenerate}
        if entry:
            entry["days"] = sorted(d.isoformat() for d in member_days)
            fitting[group] = entry
    return {"scores": scores, "daily": daily, "fitting": fitting}


def resolve_groups(date_groups, days):
    """{group: set of ``days`` in it}: the ``date_groups`` (checked by
    check_date_groups), else weekday and weekend."""
    if date_groups:
        wanted = {g: {datetime.date.fromisoformat(d) for d in ds}
                  for g, ds in date_groups.items()}
        return {g: {d for d in days if d in ds} for g, ds in wanted.items()}
    # no explicit grouping: weekday vs weekend from the calendar
    return {"weekday": {d for d in days if d.weekday() < 5},
            "weekend": {d for d in days if d.weekday() >= 5}}


def read_network_series(path):
    """Read a ``network_series.csv``; returns (days, {"dc": ..., "cf": ...}).

    Each matrix has one row of 96 slots per day; an empty ``network_inrix``
    cell reads as NaN. A file that is not a whole number of complete days of
    that layout raises ExportError.
    """
    by_day = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh)
        try:
            if next(rows, None) != _SERIES_HEADER:
                raise ExportError(f"{path}: header is not {','.join(_SERIES_HEADER)}")
            for row in rows:
                label, dc, cf = row
                iv = IntervalIndex.from_label(label)
                by_day.setdefault(iv.day, []).append(
                    (iv.slot, float(dc) if dc else float("nan"), float(cf)))
        except (ValueError, csv.Error) as exc:  # UnicodeDecodeError included
            raise ExportError(f"{path} line {rows.line_num}: {exc}") from None
    days = sorted(by_day)
    for day in days:
        if [slot for slot, _, _ in by_day[day]] != list(range(SLOTS_PER_DAY)):
            raise ExportError(f"{path}: {day} does not hold slots 0-{SLOTS_PER_DAY - 1} "
                              f"once each, in order")
    cells = np.array([by_day[d] for d in days], dtype=np.float64).reshape(-1, SLOTS_PER_DAY, 3)
    return days, {"dc": cells[:, :, 1], "cf": cells[:, :, 2]}

