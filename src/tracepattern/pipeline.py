"""End-to-end orchestration: ingest, correct, match, aggregate, analyze,
export. Produces a manifest recording configuration, counts, and output
digests; reruns on identical inputs are byte-identical.
"""

from __future__ import annotations

import csv
import datetime
import logging
import os
from dataclasses import dataclass, field, asdict

import numpy as np

from . import congestion as cg
from . import export as ex
from . import matching, network, patterns
from .errors import ConfigError, ExportError
from .ingest import (DEFAULT_CHUNK_SIZE, DEFAULT_ERROR_RATE_CEILING,
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
        for name in ("chunk_size", "max_dist_km", "pair_dt_max_s",
                     "anomaly_kmh", "error_rate_ceiling"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if abs(self.tz_offset_s) >= SECONDS_PER_DAY:
            raise ConfigError("tz_offset_s must be less than one day in magnitude")
        if not 0.0 <= self.missing_fraction <= 1.0:
            raise ConfigError("missing_fraction must be in [0, 1]")
        seen = {}
        for group, dates in self.date_groups.items():
            for d in dates:
                if d in seen:
                    raise ConfigError(f"date {d} in both {seen[d]!r} and {group!r}")
                seen[d] = group
        if not os.path.exists(self.traces_path):
            raise ConfigError(f"traces file not found: {self.traces_path}")
        if not os.path.exists(self.network_path):
            raise ConfigError(f"network file not found: {self.network_path}")


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


def run_pipeline(config: RunConfig) -> dict:
    """Execute the full pipeline and write all artifacts to ``out_dir``.

    Returns the manifest (also written as ``manifest.json``).
    """
    config.validate()
    os.makedirs(config.out_dir, exist_ok=True)
    stage = "load_network"
    manifest = {"config": _config_echo(config), "stages_completed": []}
    try:
        net = network.load_network(config.network_path)
        manifest["stages_completed"].append(stage)

        stage = "ingest_and_match"
        parser = ParserConfig(chunk_size=config.chunk_size,
                              error_rate_ceiling=config.error_rate_ceiling)
        stats = IngestStats()
        chunks = read_chunks_from_path(config.traces_path, parser, stats)
        offset, buffered = resolve_offset(config, net, chunks)

        builder = patterns.TensorBuilder(net.ordered_ids(), config.pair_dt_max_s,
                                         config.tz_offset_s)
        matched_n = unmatched_n = offset_skipped = 0

        def process(chunk):
            nonlocal matched_n, unmatched_n, offset_skipped
            shifted, skipped = matching.apply_offset(chunk, offset)
            offset_skipped += skipped
            matched, unmatched = matching.match_batch(shifted, net, config.max_dist_km)
            matched_n += len(matched)
            unmatched_n += unmatched
            builder.add(matched)

        for chunk in buffered:
            process(chunk)
        for chunk in chunks:
            process(chunk)
        manifest["stages_completed"].append(stage)

        stage = "build_tensors"
        flow, speed_raw = builder.finalize()
        manifest["stages_completed"].append(stage)

        stage = "clean"
        cleaning = patterns.clean_speed_matrix(speed_raw, config.missing_fraction,
                                               config.anomaly_kmh)
        manifest["stages_completed"].append(stage)

        stage = "analyze"
        analysis = analyze(flow, cleaning.speeds, net, config)
        manifest["stages_completed"].append(stage)

        stage = "export"
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
        for name, matrix in matrices.items():
            ex.write_matrix_csv(matrix, os.path.join(config.out_dir, name), meta)
        written = list(matrices) + write_analysis(analysis, flow, config.out_dir, meta)
        digests = {name: ex.sha256_file(os.path.join(config.out_dir, name))
                   for name in written}
        manifest["stages_completed"].append(stage)

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
        manifest["failed_stage"] = stage
        manifest["error"] = str(exc)
        ex.write_json(manifest, os.path.join(config.out_dir, "manifest.json"))
        raise
    ex.write_json(manifest, os.path.join(config.out_dir, "manifest.json"))
    return manifest


def analyze(flow, cleaned_speeds, net, config: RunConfig) -> dict:
    """Congestion scores, daily aggregates, and per-scenario fitting
    indices (raw and after per-day min-max normalization)."""
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
            fit = cg.fitting_index(mat)
            norm = np.stack([cg.min_max_normalize(r)[0] for r in mat])
            fit_n = cg.fitting_index(norm)
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


def write_analysis(analysis: dict, flow, out_dir, meta: dict | None = None) -> list:
    """Write the ``analyze`` results into ``out_dir``; returns the file names.

    ``meta``, when given, becomes the ``inrix.csv.meta.json`` sidecar.
    """
    ex.write_matrix_csv(analysis["scores"].per_road, os.path.join(out_dir, "inrix.csv"), meta)
    _write_network_series(analysis["scores"], flow, os.path.join(out_dir, "network_series.csv"))
    _write_daily(analysis["daily"], os.path.join(out_dir, "daily.csv"))
    ex.write_json(analysis["fitting"], os.path.join(out_dir, "fitting.json"))
    return ["inrix.csv", "network_series.csv", "daily.csv", "fitting.json"]


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
