"""End-to-end orchestration: ingest, correct, match, aggregate, analyze,
export. Produces a manifest recording configuration, counts, and output
digests; reruns on identical inputs are byte-identical.
"""

from __future__ import annotations

import csv
import datetime
import itertools
import logging
import math
import numbers
import os
import stat
from dataclasses import dataclass, field, asdict

import numpy as np

from . import congestion as cg
from . import export as ex
from . import matching, network, parallel, patterns
from .errors import ComparisonError, ConfigError, ExportError
from .ingest import (CEILING_MIN_ROWS, DEFAULT_CHUNK_SIZE, DEFAULT_ERROR_RATE_CEILING,
                     DEFAULT_TZ_OFFSET_S, SECONDS_PER_DAY, SLOTS_PER_DAY, IngestStats,
                     IntervalIndex, ParserConfig, TraceBatch,
                     read_chunks_from_path)

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


def resolve_offset(config: RunConfig, net, chunks_iter):
    """Explicit offset, or estimate from the head of the batch stream.

    Returns (offset, buffered_chunks): chunks consumed for the sample are
    handed back so the caller still processes every row.
    """
    if config.offset is not None:
        return matching.OffsetVector(*config.offset), []
    n = config.offset_sample_size
    buffered = []
    for chunk in chunks_iter:
        buffered.append(chunk)
        if sum(map(len, buffered)) >= n:
            break
    off = matching.estimate_offset(TraceBatch.concat(buffered)[:n], net, min_sample=n)
    return off, buffered


STAGES = ("load_network", "ingest_and_match", "build_tensors", "clean", "analyze", "export")

# A plain trace file of at least this many bytes is parsed and matched on
# two CPUs when two are available (see ingest_and_match).
SPLIT_TRACE_BYTES = 8 << 20


def run_pipeline(config: RunConfig) -> dict:
    """Execute the full pipeline and write all artifacts to ``out_dir``.

    Returns the manifest (also written as ``manifest.json``). A failed run
    records the stage it failed in as ``failed_stage``. A large plain trace
    file is parsed and matched on two CPUs (see ``ingest_and_match``); the
    outputs and the manifest are the same bytes either way.
    """
    config.validate()
    os.makedirs(config.out_dir, exist_ok=True)
    done = []
    manifest = {"config": _config_echo(config), "stages_completed": done}
    try:
        net = network.load_network(config.network_path)
        done.append("load_network")

        offset, stats, builder, (offset_skipped, matched_n, unmatched_n) = \
            ingest_and_match(config, net)
        done.append("ingest_and_match")

        flow, speed_raw = builder.finalize()
        done.append("build_tensors")

        cleaning, digests = analyze_and_write(flow, speed_raw, net, config, done,
                                              estimate=True)
        manifest.update({
            "offset": {"dlat": offset.dlat, "dlon": offset.dlon,
                       "source": "explicit" if config.offset is not None else "estimated"},
            "counts": {
                "rows_total": stats.total,
                "parsed": stats.parsed,
                "skipped_rows": stats.skipped,
                "offset_skipped": offset_skipped,
                "matched": matched_n,
                "unmatched": unmatched_n,
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
    TensorBuilder. Returns (offset, IngestStats, builder, [offset_skipped,
    matched, unmatched]).

    When two CPUs are available, a plain (not gzipped) trace file of at
    least SPLIT_TRACE_BYTES that holds no ``"`` is split at its first line
    start at or after the middle byte. The offset is resolved from the head
    of the front half. Then a forked child reads and matches the back half
    while this process does the front, and the child's rows are added after
    the front's with their order ids coded in the serial order, so the
    result is the serial one. The whole file is read again serially, with
    the offset already resolved, if the back half rejects a row (only the
    serial path numbers it and checks the error rate after it), if the
    front half rejects a row before the error rate is first checked, or if
    anything fails on either side. There is no split if the offset sample
    does not fit in the front half.
    """
    parser = ParserConfig(chunk_size=config.chunk_size,
                          error_rate_ceiling=config.error_rate_ceiling)
    mid = _split_byte(config.traces_path)
    if mid is None:
        return _ingest_serial(config, net, parser)
    path = config.traces_path
    stats = IngestStats()
    chunks = read_chunks_from_path(path, parser, stats, stop=mid)
    try:
        offset, buffered = resolve_offset(config, net, chunks)
    except Exception as exc:
        chunks.close()
        logger.debug("offset from the front half failed (%r); serial path", exc)
        return _ingest_serial(config, net, parser)

    def front():
        builder = _new_builder(config, net)
        counts = _match_into(builder, itertools.chain(buffered, chunks), offset, net, config)
        if stats.skipped and stats.total < CEILING_MIN_ROWS:
            raise RuntimeError("rows rejected before the error rate was first checked")
        return builder, counts

    def back(tmp):
        back_stats = IngestStats()
        builder = _new_builder(config, net)
        counts = _match_into(builder, read_chunks_from_path(path, parser, back_stats, start=mid),
                             offset, net, config)
        if back_stats.skipped:
            raise RuntimeError("the back half rejects rows")
        np.save(tmp, [back_stats.parsed, *counts])
        if builder.n_points:
            # the builder's stored columns, and its order ids in first-seen order
            for parts in builder._columns:
                np.save(tmp, np.concatenate(parts))
            np.save(tmp, np.frombuffer("\n".join(builder._order_idx).encode(), np.uint8))

    def join(front_result, tmp):
        builder, counts = front_result
        parsed, *more = np.load(tmp).tolist()
        if more[1]:
            columns = [np.load(tmp) for _ in range(5)]
            ids = np.load(tmp).tobytes().decode().split("\n")
            builder.add_coded(ids, *columns)
        stats.parsed += parsed
        return offset, stats, builder, [a + b for a, b in zip(counts, more)]

    return parallel.fork_split(front, back, join,
                               lambda: _ingest_serial(config, net, parser, offset))


def _split_byte(path):
    """The first line start at or after the middle byte of ``path``, if it is
    a plain file of at least SPLIT_TRACE_BYTES holding no ``"`` and two CPUs
    are available; otherwise None."""
    if str(path).endswith(".gz") or not parallel.two_cpus():
        return None
    info = os.stat(path)  # before opening: opening a FIFO would wait for a writer
    size = info.st_size
    if not stat.S_ISREG(info.st_mode) or size < max(SPLIT_TRACE_BYTES, 2):
        return None
    with open(path, "rb") as fh:
        block = bytearray(1 << 20)
        while n := fh.readinto(block):
            if block.find(b'"', 0, n) >= 0:
                return None
        fh.seek(size // 2 - 1)
        fh.readline()
        mid = fh.tell()
    return mid if mid < size else None


def _ingest_serial(config, net, parser, offset=None):
    """ingest_and_match on one CPU; the offset is resolved unless given."""
    stats = IngestStats()
    chunks = read_chunks_from_path(config.traces_path, parser, stats)
    buffered = []
    if offset is None:
        offset, buffered = resolve_offset(config, net, chunks)
    builder = _new_builder(config, net)
    counts = _match_into(builder, itertools.chain(buffered, chunks), offset, net, config)
    return offset, stats, builder, counts


def _new_builder(config, net):
    return patterns.TensorBuilder(net.ordered_ids(), config.pair_dt_max_s, config.tz_offset_s)


def _match_into(builder, chunks, offset, net, config):
    """Correct and match ``chunks`` into ``builder``; returns [offset_skipped,
    matched, unmatched]."""
    counts = [0, 0, 0]
    for chunk in chunks:
        shifted, skipped = matching.apply_offset(chunk, offset)
        matched, unmatched = matching.match_batch(shifted, net, config.max_dist_km)
        builder.add(matched)
        counts[0] += skipped
        counts[1] += len(matched)
        counts[2] += unmatched
    return counts


def analyze_and_write(flow, speed_raw, net, config: RunConfig, done: list, estimate=False):
    """The stages ``estimate`` and ``analyze`` share: clean ``speed_raw``,
    analyze, and write the results into ``config.out_dir``. Appends
    "clean", "analyze" and "export" to ``done`` as each one finishes.

    With ``estimate``, the flow and speed matrices are written too, each
    matrix CSV gets a ``.meta.json`` sidecar, and the second result maps
    every file written to its SHA-256; otherwise it is None. Returns
    (cleaning, digests). Raises ComparisonError when the two matrices'
    interval axes differ, a flow road is not in ``net``, a flow cell is
    not a finite count >= 0 or a fitting index is not finite.
    """
    if flow.intervals != speed_raw.intervals:
        raise ComparisonError("the flow and speed matrices have different interval axes")
    lacking = next((rid for rid in flow.road_ids if rid not in net.segments), None)
    if lacking is not None:
        raise ComparisonError(f"road {lacking} of the flow matrix is not in the network")
    v = flow.values
    if not (np.min(v, initial=0) >= 0 and np.max(v, initial=0) < np.inf):  # a NaN cell: NaN min
        i, j = np.argwhere(~((v >= 0) & np.isfinite(v)))[0]
        raise ComparisonError(f"road {flow.road_ids[i]} of the flow matrix has flow {v[i, j]} "
                              f"at {flow.intervals[j].label()}, not a finite count >= 0")
    cleaning = patterns.clean_speed_matrix(speed_raw, config.missing_fraction,
                                           config.anomaly_kmh)
    if not estimate:
        speed_raw = None  # not written, so let the caller's only copy go
    done.append("clean")
    analysis = analyze(flow, cleaning.speeds, net, config)
    done.append("analyze")

    out = config.out_dir
    os.makedirs(out, exist_ok=True)
    meta, matrices = None, {}
    if estimate:
        meta = {
            "interval_seconds": 900,
            "tz_offset_s": config.tz_offset_s,
            "anomaly_threshold_kmh": config.anomaly_kmh,
            "missing_fraction_threshold": config.missing_fraction,
            "dropped_road_ids": cleaning.dropped_road_ids,
            "anomaly_rate": cleaning.anomaly_rate,
        }
        matrices = {"flow.csv": flow, "speed_raw.csv": speed_raw,
                    "speed_clean.csv": cleaning.speeds}
    matrices["inrix.csv"] = analysis["scores"].per_road
    for name, matrix in matrices.items():
        ex.write_matrix_csv(matrix, os.path.join(out, name), meta)
    _write_network_series(analysis["scores"], flow, os.path.join(out, "network_series.csv"))
    _write_daily(analysis["daily"], os.path.join(out, "daily.csv"))
    ex.write_json(analysis["fitting"], os.path.join(out, "fitting.json"))
    digests = None
    if estimate:
        digests = {name: ex.sha256_file(os.path.join(out, name))
                   for name in [*matrices, "network_series.csv", "daily.csv", "fitting.json"]}
    done.append("export")
    return cleaning, digests


def analyze(flow, cleaned_speeds, net, config: RunConfig) -> dict:
    """Congestion scores, daily aggregates, and per-scenario fitting
    indices (raw and after per-day min-max normalization). Raises
    ComparisonError when a fitting index is not finite, as when a series
    is too large to square in float64."""
    scores = cg.score_matrix(cleaned_speeds, net, config.anomaly_kmh)
    daily = cg.daily_aggregates(flow, scores)
    fitting = {}
    try:
        days, dc = cg.network_day_matrix(scores)
        _, cf = cg.flow_day_matrix(flow)
    except ValueError:
        return {"scores": scores, "daily": daily, "fitting": fitting}
    groups = _resolve_groups(config.date_groups, days)
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


def _resolve_groups(date_groups, days):
    if date_groups:
        wanted = {g: {datetime.date.fromisoformat(d) for d in ds}
                  for g, ds in date_groups.items()}
        return {g: {d for d in days if d in ds} for g, ds in wanted.items()}
    # no explicit grouping: weekday vs weekend from the calendar
    return {"weekday": {d for d in days if d.weekday() < 5},
            "weekend": {d for d in days if d.weekday() >= 5}}


_SERIES_HEADER = ["interval", "network_inrix", "cf_total"]


def _write_network_series(scores, flow, path):
    labels = flow.interval_labels()
    cf = flow.values.sum(axis=0)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_SERIES_HEADER)
        for lbl, dc, f in zip(labels, scores.network, cf):
            w.writerow([lbl, "" if np.isnan(dc) else repr(float(dc)), int(f)])


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


def _write_daily(daily, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["day", "cf_total", "dc_mean", "partial"])
        for agg in daily:
            dc = "" if np.isnan(agg.dc_mean) else repr(agg.dc_mean)
            w.writerow([agg.day.isoformat(), agg.cf_total, dc, int(agg.partial)])


def _config_echo(config: RunConfig) -> dict:
    echo = asdict(config)
    echo["offset"] = list(config.offset) if config.offset is not None else None
    return echo
