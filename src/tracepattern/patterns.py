"""Road x interval tensor matrices: car-hailing flow and mean road speed.

Flow counts distinct order ids per road-interval cell; speed is the
arithmetic mean of trace-pair speeds, with a pair built from temporally
consecutive pings of one order on one road no more than 10 s apart.
Cleaning drops roads with too many empty cells, linearly interpolates the
remaining gaps, and repairs over-threshold anomalies from their temporal
neighbors.
"""

from __future__ import annotations

import ctypes
import datetime
import logging
from dataclasses import dataclass
from itertools import compress

import numpy as np

from . import geo
from .errors import TensorKeyError
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
    result is bit-identical regardless (points are re-sorted by one
    stable (order, timestamp) key at finalize before pair construction).
    ``finalize`` consumes the builder: it frees the stored columns as it
    goes, and a later ``add`` or ``finalize`` raises ``ValueError``. It
    raises ``TensorKeyError`` when the orders times the seconds (or the
    grid cells) the traces span exceed the int64 range of its sort keys.
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
        self._stored()
        n = len(matched)
        if n == 0:
            return
        axis = self._road_axis
        road = None if matched.road_id is None else np.searchsorted(axis, matched.road_id)
        if road is None or road.max() >= axis.size or (axis[road] != matched.road_id).any():
            raise ValueError("every row needs a road id from the builder's road axis")
        # rows arrive grouped by order, so only the first row of each run of
        # equal ids is coded
        ids = matched.order_id
        run = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))
        self.add_coded(ids[run], np.repeat(np.arange(run.size), np.diff(run, append=n)),
                       matched.timestamp, road, matched.lat, matched.lon)

    def add_coded(self, order_ids, order, ts, road, lat, lon):
        """Append stored columns: ``order`` indexes ``order_ids`` and ``road``
        the road axis. Each id of ``order_ids`` in turn that is new to the
        builder takes the next int code, so codes follow first-seen order
        and finalize sums pair speeds in the same order under any chunking.
        ``add`` codes its batches here, and so does the join of another
        builder's columns with its ids in first-seen order."""
        columns = self._stored()
        oidx = self._order_idx
        codes = np.fromiter((oidx.setdefault(o, len(oidx)) for o in order_ids),
                            dtype=np.int64, count=len(order_ids))
        for parts, column in zip(columns, (codes[order], ts, road, lat, lon)):
            parts.append(column)
        self.n_points += ts.size

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

        # speed: mean over consecutive same-order same-road pairs. Rows sort
        # by one (order, ts) key; the sort is stable, so equal (order, ts)
        # rows keep their arrival order. Rows that arrive grouped by order
        # are sorted runs already, which Timsort merges in linear time.
        t0 = int(ts.min())
        sort = np.argsort(_packed_key(order, ts, int(ts.max()) - t0 + 1, t0),
                          kind="stable")
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

        # flow: distinct orders per cell. The rows are grouped by order now,
        # so the (order, cell) key is nearly sorted; the first of each run
        # of equal keys is one distinct (order, cell). After the speed
        # grids, so the count grid is gone.
        key = _packed_key(order, cell, n_cells)
        del order, cell
        key.sort(kind="stable")  # Timsort, linear on sorted runs
        first = np.empty(key.size, dtype=bool)
        first[0] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        flow = np.bincount(key[first] % n_cells, minlength=n_cells)

        axis = full_interval_axis(datetime.date.fromordinal(day0),
                                  datetime.date.fromordinal(day1))
        return (SpatioTemporalMatrix(self.road_ids, axis, flow.reshape(n_rows, n_cols)),
                SpatioTemporalMatrix(self.road_ids, axis, v_sum.reshape(n_rows, n_cols)))


_PAIR_BLOCK = 1 << 17  # pairs whose speeds are evaluated at once in finalize


def _take_concat(parts):
    """One array of the chunk parts, emptying ``parts`` so they can be freed,
    and then handing the freed heap back."""
    whole = np.concatenate(parts)
    parts.clear()
    _release_freed_heap()
    return whole


def _release_freed_heap():
    """Hand the pages of freed malloc blocks back to the OS (glibc's
    ``malloc_trim``; elsewhere nothing happens).

    The chunk parts of a column that finalize has just concatenated and
    freed are a fifth of the builder's bytes, in blocks between small live
    objects on the heap. glibc keeps such pages resident, and whether the
    next column's join and the temporaries after the joins reuse them
    depends on the process's allocation history (the string hash seed is
    enough to change it), so without this the peak RSS of one input moved
    by up to 12 MB from run to run.
    """
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (AttributeError, OSError, TypeError):
        pass


_KEY_LIMIT = 1 << 63  # int64 keys lie below this


def _packed_key(major, minor, n_minor, minor0=0):
    """``major * n_minor + (minor - minor0)``, one new int64 array built in
    place. With ``minor - minor0`` in [0, n_minor), its order is that of
    the (major, minor) pairs.

    Raises TensorKeyError when the largest such key,
    ``max(major) * n_minor + n_minor - 1``, would not fit in int64.
    """
    top = int(major.max()) * n_minor + n_minor - 1
    if top >= _KEY_LIMIT:
        raise TensorKeyError(f"{int(major.max()) + 1} orders x {n_minor} values need "
                             f"sort key {top}, past the largest int64 key "
                             f"{_KEY_LIMIT - 1}")
    key = major * (n_minor - 1)  # n_minor is 2**63 at most, with major all 0
    key += major
    key -= minor0  # may wrap past int64 and back: the final key fits
    key += minor
    return key


def missing(values):
    """The cells of ``values`` that hold no observation: a zero speed."""
    return values == 0.0


def filter_missing(speeds: SpatioTemporalMatrix,
                   max_missing_fraction: float = DEFAULT_MISSING_FRACTION):
    """Drop roads whose fraction of missing cells exceeds the threshold.

    A missing cell means no GPS trace in that interval. Returns
    (retained SpeedMatrix, dropped road ids); the interval axis is kept.
    """
    if not 0.0 <= max_missing_fraction <= 1.0:
        raise ValueError("max_missing_fraction must be in [0, 1]")
    n_cols = speeds.values.shape[1]
    if n_cols == 0:
        return speeds, []
    keep = missing(speeds.values).sum(axis=1) / n_cols <= max_missing_fraction
    dropped = list(compress(speeds.road_ids, ~keep))
    retained = SpatioTemporalMatrix(list(compress(speeds.road_ids, keep)),
                                    speeds.intervals, speeds.values[keep])
    if not retained.road_ids:
        logger.warning("all %d roads dropped by missing-value filter", len(dropped))
    return retained, dropped


def _run_bounds(cells, n_cols):
    """For each of the ascending flat indices ``cells`` of a grid with
    ``n_cols`` columns: (lo, hi, lo_in_row, hi_in_row), the flat indices
    just before and just after its run of consecutive cells, and whether
    each lies in the cell's own row (-1 and the grid size lie in none)."""
    edge = np.ones(cells.size + 1, dtype=bool)  # a run starts at i, ends at i - 1
    np.not_equal(np.diff(cells), 1, out=edge[1:-1])
    lo = np.where(edge[:-1], cells, -1)
    np.maximum.accumulate(lo, out=lo)
    lo -= 1
    hi = np.where(edge[1:], cells, np.iinfo(cells.dtype).max)
    del edge
    np.minimum.accumulate(hi[::-1], out=hi[::-1])
    hi += 1
    row_start = cells % n_cols
    np.subtract(cells, row_start, out=row_start)
    lo_in_row = lo >= row_start
    row_start += n_cols
    return lo, hi, lo_in_row, hi < row_start


@dataclass
class CleaningReport:
    """Outcome of the full speed-matrix cleaning pass."""

    speeds: SpatioTemporalMatrix
    dropped_road_ids: list
    flagged_road_ids: list  # all-missing rows that survived the filter
    anomaly_count: int
    anomaly_rate: float


def clean_speed_matrix(speeds: SpatioTemporalMatrix,
                       max_missing_fraction: float = DEFAULT_MISSING_FRACTION,
                       anomaly_kmh: float = DEFAULT_ANOMALY_KMH) -> CleaningReport:
    """Missing-value filter, then interpolation, then anomaly repair, on
    the whole grid, via the flat indices of the cells they change.

    A gap (missing cell) between two observed cells of its road is
    interpolated as ``np.interp`` does, one at a road's end takes its one
    observed neighbour, and a road with no observation is flagged. Each
    anomaly (above ``anomaly_kmh``) then takes the mean of the nearest
    other cells on either side; a road with no other cell is clamped to
    the threshold.
    """
    if anomaly_kmh < 0:  # else an empty road would hold anomalies
        raise ValueError("anomaly_kmh must not be negative")
    retained, dropped = filter_missing(speeds, max_missing_fraction)
    values = retained.values  # a copy made by the filter's row mask
    if retained is speeds:  # no interval, so nothing was filtered
        values = values.copy()
    n_cols = values.shape[1]
    flat = values.reshape(-1)
    flagged = list(compress(retained.road_ids, missing(values).all(axis=1)))
    gap = np.flatnonzero(missing(values))
    lo, hi, has_lo, has_hi = _run_bounds(gap, n_cols)
    with np.errstate(invalid="ignore", over="ignore"):  # as np.interp, which never warns
        # slope * (x - lo) + f[lo], built up in place: one gap-length temporary at a time
        flat[gap] = flat.take(hi, mode="clip")
        np.subtract.at(flat, gap, flat.take(lo, mode="clip"))
        np.divide.at(flat, gap, np.subtract(hi, lo, dtype=np.float64))
        np.multiply.at(flat, gap, np.subtract(gap, lo, dtype=np.float64))
        np.add.at(flat, gap, flat.take(lo, mode="clip"))
        # np.interp's fallbacks for NaN: slope * (x - hi) + f[hi], then f[lo] == f[hi]
        i = np.flatnonzero(np.isnan(flat[gap]) & has_lo & has_hi)
        x, a, b = gap[i], lo[i], hi[i]
        fill = (flat[b] - flat[a]) / (b - a) * (x - b) + flat[b]
        flat[x] = np.where(np.isnan(fill) & (flat[a] == flat[b]), flat[a], fill)
    i = np.flatnonzero(~(has_lo & has_hi))  # at a road's end, or on an empty road
    flat[gap[i]] = np.where(has_lo[i], flat.take(lo[i], mode="clip"),
                            np.where(has_hi[i], flat.take(hi[i], mode="clip"), 0.0))
    del gap, lo, hi, has_lo, has_hi, i
    bad = np.flatnonzero(flat > anomaly_kmh)
    lo, hi, has_lo, has_hi = _run_bounds(bad, n_cols)
    sides = has_lo.astype(np.float64) + has_hi  # none: the road holds nothing else
    with np.errstate(invalid="ignore", divide="ignore"):
        flat[bad] = np.where(sides == 0.0, anomaly_kmh,
                             (np.where(has_lo, flat.take(lo, mode="clip"), 0.0)
                              + np.where(has_hi, flat.take(hi, mode="clip"), 0.0)) / sides)
    if not sides.all():
        logger.warning("%d roads entirely anomalous, clamped to %.0f km/h",
                       np.count_nonzero(sides == 0.0) // n_cols, anomaly_kmh)
    rate = bad.size / values.size if values.size else 0.0
    logger.info("cleaning: %d roads dropped, %d anomalies (%.3f%%)",
                len(dropped), bad.size, 100.0 * rate)
    return CleaningReport(SpatioTemporalMatrix(retained.road_ids, retained.intervals, values),
                          dropped, flagged, bad.size, rate)
