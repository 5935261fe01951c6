import datetime
import io
import os
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from tracepattern import network
from tracepattern.ingest import (DEFAULT_TZ_OFFSET_S, IngestStats, IntervalIndex,
                                 ParserConfig, TraceBatch, day_slot, read_chunks)
from tracepattern.patterns import (DEFAULT_ANOMALY_KMH, DEFAULT_PAIR_DT_MAX_S,
                                   TensorBuilder, filter_missing)
from tracepattern.synth import Scenario, generate, uniform_profile


@dataclass(frozen=True)
class TraceRecord:
    """One GPS ping: the row-at-a-time form of a TraceBatch row."""

    driver_id: str
    order_id: str
    timestamp: int
    lat: float
    lon: float


def batch_from_records(records):
    """The TraceBatch of TraceRecords, in order."""
    return TraceBatch(np.array([r.order_id for r in records], dtype=object),
                      np.array([r.timestamp for r in records], dtype=np.int64),
                      np.array([r.lat for r in records], dtype=np.float64),
                      np.array([r.lon for r in records], dtype=np.float64))


def assign_interval(timestamp, tz_offset_s=DEFAULT_TZ_OFFSET_S):
    """The day-local 15-minute interval of one epoch timestamp."""
    day, slot = day_slot(timestamp, tz_offset_s)
    return IntervalIndex(datetime.date.fromordinal(int(day)), int(slot))


def inrix_score(free_flow_kmh: float, speed_kmh: float) -> float:
    """Congestion score for one road-interval: max(TH/RE - 1, 0); the
    scalar oracle of ``congestion.score_matrix``'s cells."""
    if speed_kmh <= 0.0:
        raise ValueError(f"speed {speed_kmh} km/h is not positive")
    return max(free_flow_kmh / speed_kmh - 1.0, 0.0)


def network_inrix(scores, lengths_km) -> float:
    """Length-weighted network congestion score over roads with defined
    scores; the oracle of one ``CongestionSeries.network`` value. Raises
    ValueError for an empty road set.
    """
    scores = np.asarray(scores, dtype=np.float64)
    lengths = np.asarray(lengths_km, dtype=np.float64)
    ok = ~np.isnan(scores)
    if not np.any(ok):
        raise ValueError("no roads with defined scores")
    return float(np.sum(lengths[ok] * scores[ok]) / np.sum(lengths[ok]))


def interpolate_missing(row):
    """Fill zero runs in one road's interval series by linear interpolation.

    Leading/trailing zeros take the nearest non-zero value. An all-zero
    row is returned unchanged (the caller flags it).
    """
    row = np.asarray(row, dtype=np.float64)
    good = np.nonzero(row != 0.0)[0]
    if good.size == 0 or good.size == row.size:
        return row.copy()
    x = np.arange(row.size)
    return np.interp(x, good, row[good])


def repair_anomalies(row, threshold_kmh=DEFAULT_ANOMALY_KMH):
    """Replace over-threshold values by the mean of their nearest
    non-anomalous temporal neighbors (one per side, single at edges).

    Returns (repaired series, anomaly_count). An all-anomalous row is
    clamped to the threshold.
    """
    row = np.asarray(row, dtype=np.float64)
    bad = row > threshold_kmh
    count = int(bad.sum())
    if count == 0:
        return row.copy(), 0
    good = np.nonzero(~bad)[0]
    out = row.copy()
    if good.size == 0:
        out[:] = threshold_kmh
        return out, count
    bad_idx = np.nonzero(bad)[0]
    pos = np.searchsorted(good, bad_idx)
    left = np.where(pos > 0, good[np.maximum(pos - 1, 0)], -1)
    right = np.where(pos < good.size, good[np.minimum(pos, good.size - 1)], -1)
    left_v = np.where(left >= 0, row[left], 0.0)
    right_v = np.where(right >= 0, row[right], 0.0)
    n_sides = (left >= 0).astype(float) + (right >= 0).astype(float)
    out[bad_idx] = (left_v + right_v) / n_sides
    return out, count


def estimate_free_flow(speed_row, anomaly_kmh=DEFAULT_ANOMALY_KMH):
    """Free-flow speed estimate for one road: P85 of its cleaned series,
    clamped to [5, anomaly threshold]; ValueError for an all-zero series."""
    row = np.asarray(speed_row, dtype=np.float64)
    if not np.any(row != 0.0):
        raise ValueError("cannot estimate free flow from an all-zero series")
    return float(np.clip(np.percentile(row, 85.0), 5.0, anomaly_kmh))


def clean_by_rows(speeds, max_missing_fraction, anomaly_kmh):
    """The road-by-road oracle of ``clean_speed_matrix``: (values, dropped,
    flagged, anomaly count)."""
    retained, dropped = filter_missing(speeds, max_missing_fraction)
    values = np.array(retained.values, dtype=np.float64)
    flagged, anomalies = [], 0
    for i, rid in enumerate(retained.road_ids):
        if not np.any(values[i] != 0.0):
            flagged.append(rid)
            continue
        values[i], n = repair_anomalies(interpolate_missing(values[i]), anomaly_kmh)
        anomalies += n
    return values, dropped, flagged, anomalies


def score_by_rows(speeds, net, anomaly_kmh=DEFAULT_ANOMALY_KMH):
    """The road-by-road, interval-by-interval oracle of ``score_matrix``:
    (per-road scores, network series, free flow)."""
    free_flow = {}
    values = np.full(speeds.values.shape, np.nan)
    lengths = np.array([net.segments[rid].length_km for rid in speeds.road_ids])
    for i, rid in enumerate(speeds.road_ids):
        row = speeds.values[i]
        supplied = net.segments[rid].free_flow_kmh
        with np.errstate(divide="ignore", invalid="ignore"):  # +-inf and NaN cells
            if supplied is not None:
                free_flow[rid] = (float(min(supplied, anomaly_kmh)), "supplied")
            elif np.any(row != 0.0):
                free_flow[rid] = (estimate_free_flow(row, anomaly_kmh), "estimated")
            else:
                continue
            values[i] = np.where(row > 0.0, np.maximum(free_flow[rid][0] / row - 1.0, 0.0),
                                 np.nan)
    series = np.empty(len(speeds.intervals))
    for j in range(series.size):
        col = values[:, j]
        ok = ~np.isnan(col)
        series[j] = (np.sum(lengths[ok] * col[ok]) / np.sum(lengths[ok])
                     if np.any(ok) else np.nan)
    return values, series, free_flow


def odd_grid(rng, n_roads, n_cols):
    """A random speed grid (km/h) salted with the cells that cleaning and
    scoring treat apart: zeros (in runs, at row ends), negatives, NaN,
    +-inf and anomalies above 70, plus rows all zero or all anomalous."""
    v = rng.uniform(5.0, 69.0, (n_roads, n_cols))
    for value, share in ((0.0, 0.5), (-7.5, 0.05), (np.nan, 0.05), (np.inf, 0.05),
                         (-np.inf, 0.05), (None, 0.2)):
        hit = rng.random(v.shape) < rng.random() * share
        v[hit] = rng.uniform(71.0, 500.0, np.count_nonzero(hit)) if value is None else value
    kind = rng.random(n_roads)
    v[kind < 0.1] = 0.0
    v[(kind >= 0.1) & (kind < 0.15)] = 200.0
    return v


def sparse_anomalous_grid(n_roads=2000, n_cols=1344, seed=12):
    """A speed grid (km/h) of the ``reanalyze`` benchmark's make: 5% of
    the cells missing (0) and 0.5% above 70 km/h, at random."""
    rng = np.random.default_rng(seed)
    v = rng.uniform(20.0, 60.0, (n_roads, n_cols))
    v[rng.random(v.shape) < 0.05] = 0.0
    cells = rng.choice(v.size, size=v.size // 200, replace=False)
    v.reshape(-1)[cells] = rng.uniform(75.0, 120.0, cells.size)
    return v


def traced_peak(fn, *args):
    """The peak of traced allocations while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_bits_equal(got, want):
    """Equal shapes and equal float64 bits (so 0.0 is not -0.0), except
    that NaN matches any NaN: its sign and payload depend on the order of
    operands, and every NaN is written as nan."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def assert_no_child():
    """Every child this process forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def build_tensors(matched_batches, road_ids, pair_dt_max_s=DEFAULT_PAIR_DT_MAX_S):
    """(FlowMatrix, SpeedMatrix) from an iterable of matched TraceBatches,
    intervals in the default UTC+8 offset."""
    builder = TensorBuilder(road_ids, pair_dt_max_s)
    for batch in matched_batches:
        builder.add(batch)
    return builder.finalize()


@pytest.fixture(scope="session")
def small_scenario():
    return Scenario(seed=2, demand_profile=uniform_profile(3))


@pytest.fixture(scope="session")
def small_generated(small_scenario):
    return generate(small_scenario)


@pytest.fixture(scope="session")
def small_net(small_generated):
    return network.load_network(small_generated.network_doc)


def parse_all(trace_csv, config=None):
    config = config or ParserConfig()
    stats = IngestStats()
    records = TraceBatch.concat(list(read_chunks(io.StringIO(trace_csv), config, stats)))
    return records, stats


@pytest.fixture(scope="session")
def small_records(small_generated):
    records, _ = parse_all(small_generated.trace_csv)
    return records
