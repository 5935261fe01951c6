"""Road x interval tensor matrices: car-hailing flow and mean road speed.

Flow counts distinct order ids per road-interval cell; speed is the
arithmetic mean of trace-pair speeds, with a pair built from temporally
consecutive pings of one order on one road no more than 10 s apart.
Cleaning drops roads with too many empty cells, linearly interpolates the
remaining gaps, and repairs over-threshold anomalies from their temporal
neighbors.
"""

from __future__ import annotations

import datetime
import logging
from dataclasses import dataclass

import numpy as np

from . import geo
from .ingest import (DEFAULT_TZ_OFFSET_S, SLOTS_PER_DAY, IntervalIndex,
                     TraceBatch, day_slot)

logger = logging.getLogger(__name__)

DEFAULT_PAIR_DT_MAX_S = 10
DEFAULT_ANOMALY_KMH = 70.0
DEFAULT_MISSING_FRACTION = 0.2


@dataclass
class SpatioTemporalMatrix:
    """Dense road x interval grid of flow counts or mean speeds (km/h)."""

    road_ids: list
    intervals: list  # IntervalIndex, ordered
    values: np.ndarray  # shape (len(road_ids), len(intervals))

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != (len(self.road_ids), len(self.intervals)):
            raise ValueError("grid shape does not match axes")

    def interval_labels(self):
        return [iv.label() for iv in self.intervals]

    def days(self):
        seen = []
        for iv in self.intervals:
            if not seen or seen[-1] != iv.day:
                seen.append(iv.day)
        return seen

    def same_axes(self, other: "SpatioTemporalMatrix") -> bool:
        return self.road_ids == other.road_ids and self.intervals == other.intervals


def full_interval_axis(day_first: datetime.date, day_last: datetime.date):
    """All 96 slots for every day in the closed range."""
    out = []
    day = day_first
    while day <= day_last:
        out.extend(IntervalIndex(day, s) for s in range(SLOTS_PER_DAY))
        day += datetime.timedelta(days=1)
    return out


class TensorBuilder:
    """Streaming accumulator for the flow and speed matrices.

    Batches may arrive in any chunking of the same source order; the
    result is bit-identical regardless (points are re-sorted per order at
    finalize, with a stable key, before pair construction). ``finalize``
    consumes the builder: it frees the stored columns as it goes, and a
    later ``add`` or ``finalize`` raises ``ValueError``.
    """

    def __init__(self, road_ids, pair_dt_max_s: float = DEFAULT_PAIR_DT_MAX_S,
                 tz_offset_s: int = DEFAULT_TZ_OFFSET_S):
        self.road_ids = sorted(road_ids)
        self.pair_dt_max_s = pair_dt_max_s
        self.tz_offset_s = tz_offset_s
        self._road_axis = np.asarray(self.road_ids, dtype=np.int64)
        self._order_idx: dict[str, int] = {}
        # chunk parts of (order, ts, road, lat, lon), one list per column;
        # None once finalized
        self._columns: tuple[list, ...] | None = ([], [], [], [], [])
        self.n_points = 0

    def _stored(self):
        if self._columns is None:
            raise ValueError("TensorBuilder already finalized")
        return self._columns

    def add(self, matched: TraceBatch):
        """Append a batch whose rows ``match_batch`` labeled with road ids."""
        columns = self._stored()
        n = len(matched)
        if n == 0:
            return
        if matched.road_id is None or not np.isin(matched.road_id, self._road_axis).all():
            raise ValueError("every row needs a road id from the builder's road axis")
        # int codes in first-seen order, so finalize sums pair speeds in
        # the same order under any chunking; rows arrive grouped by order,
        # so only the first row of each run of equal ids is looked up
        ids = matched.order_id
        run = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))
        oidx = self._order_idx
        codes = np.fromiter((oidx.setdefault(o, len(oidx)) for o in ids[run]),
                            dtype=np.int64, count=run.size)
        order = np.repeat(codes, np.diff(run, append=n))
        road = np.searchsorted(self._road_axis, matched.road_id)
        for parts, column in zip(columns, (order, matched.timestamp, road,
                                           matched.lat, matched.lon)):
            parts.append(column)
        self.n_points += n

    def finalize(self):
        """Build (flow, speed) matrices over the full road x interval grid.

        Holds the stored columns plus about two column-length temporaries
        at a time; pair speeds are evaluated in blocks of ``_PAIR_BLOCK``.
        """
        columns = self._stored()
        self._columns = None
        n_rows = len(self.road_ids)
        if not columns[0]:
            axis = []
            return (SpatioTemporalMatrix(self.road_ids, axis,
                                         np.zeros((n_rows, 0), dtype=np.int64)),
                    SpatioTemporalMatrix(self.road_ids, axis, np.zeros((n_rows, 0))))
        order, ts, road, lat, lon = (_take_concat(parts) for parts in columns)

        day, slot = day_slot(ts, self.tz_offset_s)
        day0 = int(day.min())
        day1 = int(day.max())
        n_cols = (day1 - day0 + 1) * SLOTS_PER_DAY
        n_cells = n_rows * n_cols
        cell = day  # (day - day0) * 96 + slot, then + road * n_cols, in place
        cell -= day0
        cell *= SLOTS_PER_DAY
        cell += slot
        del day, slot
        road *= n_cols
        cell += road
        del road

        # speed: mean over consecutive same-order same-road pairs; lexsort
        # is stable, so equal (order, ts) rows keep their arrival order
        sort = np.lexsort((ts, order))
        order = order[sort]
        ts = ts[sort]
        cell = cell[sort]
        lat = lat[sort]
        lon = lon[sort]
        del sort
        ok = order[1:] == order[:-1]
        dt = ts[1:] - ts[:-1]
        ok &= dt > 0
        ok &= dt <= self.pair_dt_max_s
        del dt
        road = cell // n_cols  # exact: 0 <= col < n_cols
        ok &= road[1:] == road[:-1]
        del road
        idx = np.flatnonzero(ok)  # a pair starts at each of these rows
        del ok

        # each pair belongs to the earlier point's cell; pairs are summed in
        # index order, block by block, so sums do not depend on the block
        v_sum = np.zeros(n_cells)
        for lo in range(0, idx.size, _PAIR_BLOCK):
            a = idx[lo:lo + _PAIR_BLOCK]
            b = a + 1
            d = geo.haversine(lat[a], lon[a], lat[b], lon[b])
            np.add.at(v_sum, cell[a], d / ((ts[b] - ts[a]) / 3600.0))
        del ts, lat, lon
        v_cnt = np.bincount(cell[idx], minlength=n_cells)
        del idx
        np.divide(v_sum, v_cnt, out=v_sum, where=v_cnt > 0)
        del v_cnt

        # flow: distinct orders per cell, which does not depend on the row
        # order; after the speed grids, so the count grid is gone
        flow = np.zeros(n_cells, dtype=np.int64)
        cells, counts = _distinct_per_cell(cell, order)
        flow[cells] = counts

        axis = full_interval_axis(datetime.date.fromordinal(day0),
                                  datetime.date.fromordinal(day1))
        return (SpatioTemporalMatrix(self.road_ids, axis, flow.reshape(n_rows, n_cols)),
                SpatioTemporalMatrix(self.road_ids, axis, v_sum.reshape(n_rows, n_cols)))


_PAIR_BLOCK = 1 << 17  # pairs whose speeds are evaluated at once in finalize


def _take_concat(parts):
    """One array of the chunk parts, emptying ``parts`` so they can be freed."""
    whole = np.concatenate(parts)
    parts.clear()
    return whole


def _distinct_per_cell(cell, order):
    """(cells, counts): each occupied cell, ascending, and the number of
    distinct orders in it. The sort temporaries die on return."""
    by_cell = np.lexsort((order, cell))
    order_s = order[by_cell]
    first = np.ones(order_s.size, dtype=bool)
    np.not_equal(order_s[1:], order_s[:-1], out=first[1:])
    del order_s
    cell_s = cell[by_cell]
    del by_cell
    first[1:] |= cell_s[1:] != cell_s[:-1]
    pairs = cell_s[first]  # one entry per distinct (cell, order), ascending
    del cell_s, first
    starts = np.flatnonzero(np.diff(pairs, prepend=-1))
    return pairs[starts], np.diff(starts, append=pairs.size)


def filter_missing(speeds: SpatioTemporalMatrix,
                   max_missing_fraction: float = DEFAULT_MISSING_FRACTION):
    """Drop roads whose fraction of zero cells exceeds the threshold.

    A zero cell means no GPS trace in that interval. Returns
    (retained SpeedMatrix, dropped road ids); the interval axis is kept.
    """
    if not 0.0 <= max_missing_fraction <= 1.0:
        raise ValueError("max_missing_fraction must be in [0, 1]")
    n_cols = speeds.values.shape[1]
    if n_cols == 0:
        return speeds, []
    missing = (speeds.values == 0.0).sum(axis=1) / n_cols
    keep = missing <= max_missing_fraction
    dropped = [rid for rid, k in zip(speeds.road_ids, keep) if not k]
    retained = SpatioTemporalMatrix(
        [rid for rid, k in zip(speeds.road_ids, keep) if k],
        speeds.intervals,
        speeds.values[keep],
    )
    if not retained.road_ids:
        logger.warning("all %d roads dropped by missing-value filter", len(dropped))
    return retained, dropped


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


def repair_anomalies(row, threshold_kmh: float = DEFAULT_ANOMALY_KMH):
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
        logger.warning("entire series anomalous, clamping to %.0f km/h", threshold_kmh)
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


@dataclass
class CleaningReport:
    """Outcome of the full speed-matrix cleaning pass."""

    speeds: SpatioTemporalMatrix
    dropped_road_ids: list
    flagged_road_ids: list  # all-zero rows that survived the filter
    anomaly_count: int
    anomaly_rate: float
    missing_fraction_threshold: float = DEFAULT_MISSING_FRACTION
    anomaly_threshold_kmh: float = DEFAULT_ANOMALY_KMH


def clean_speed_matrix(speeds: SpatioTemporalMatrix,
                       max_missing_fraction: float = DEFAULT_MISSING_FRACTION,
                       anomaly_kmh: float = DEFAULT_ANOMALY_KMH) -> CleaningReport:
    """Missing-value filter, then interpolation, then anomaly repair."""
    retained, dropped = filter_missing(speeds, max_missing_fraction)
    values = retained.values  # a copy made by the filter's row mask
    if retained is speeds:  # no interval, so nothing was filtered
        values = values.copy()
    flagged = []
    anomalies = 0
    for i, rid in enumerate(retained.road_ids):
        row = values[i]
        if not np.any(row != 0.0):
            flagged.append(rid)
            continue
        row = interpolate_missing(row)
        row, n = repair_anomalies(row, anomaly_kmh)
        anomalies += n
        values[i] = row
    total = values.size
    report = CleaningReport(
        SpatioTemporalMatrix(retained.road_ids, retained.intervals, values),
        dropped, flagged, anomalies,
        anomalies / total if total else 0.0,
        max_missing_fraction, anomaly_kmh,
    )
    logger.info("cleaning: %d roads dropped, %d anomalies (%.3f%%)",
                len(dropped), anomalies, 100.0 * report.anomaly_rate)
    return report
