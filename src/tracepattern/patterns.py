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
    stable (order, timestamp) key before pair construction).

    The builder holds either rows or pairs. ``add`` stores rows.
    ``compact`` reduces rows that are already in (order, ts) key order,
    as from a file of orders one after another, to a pair record and frees
    their columns: each pair's cell and speed in key order, the cell of
    each distinct (order, cell) key, and the first and last rows.
    ``finalize`` reduces its rows the same way, sorting them first if
    needed, and only then allocates the dense grids. A record is about a
    quarter of the rows' bytes and needs no sort, so a forked half of the
    input reduces its own rows on its own CPU and hands over the record
    (see ``merge``).

    ``finalize`` consumes the builder, and a later ``add``, ``finalize`` or
    ``merge`` raises ``ValueError``; so does an ``add`` after rows were
    reduced to pairs. ``finalize`` raises ``TensorKeyError`` when the
    orders times the seconds (or the grid cells) the traces span exceed
    the int64 range of its sort keys.
    """

    def __init__(self, road_ids, pair_dt_max_s: float = DEFAULT_PAIR_DT_MAX_S,
                 tz_offset_s: int = DEFAULT_TZ_OFFSET_S):
        self.road_ids = sorted(road_ids)
        self.pair_dt_max_s = pair_dt_max_s
        self.tz_offset_s = tz_offset_s
        self._road_axis = np.asarray(self.road_ids, dtype=np.int64)
        self._order_idx: dict[str, int] = {}
        # chunk parts of (order, ts, road, lat, lon), one list per column;
        # None once the rows are reduced to pairs, finalized or merged
        self._columns: tuple[list, ...] | None = ([], [], [], [], [])
        self._pairs: _Pairs | None = None  # the rows reduced to pairs
        self.n_points = 0

    @property
    def paired(self):
        """Whether the rows are reduced to pairs (see ``compact``)."""
        return self._pairs is not None

    def _stored(self):
        """The stored rows' column parts; None when they are reduced to pairs."""
        if self._columns is None and self._pairs is None:
            raise ValueError("TensorBuilder already finalized or merged into another")
        return self._columns

    def add(self, matched: TraceBatch):
        """Append a batch whose rows ``match_batch`` labeled with road ids."""
        columns = self._stored()
        if columns is None:
            raise ValueError("TensorBuilder rows are reduced to pairs; add comes before compact")
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
        order = np.repeat(self._code(ids[run]), np.diff(run, append=n))
        for parts, column in zip(columns, (order, matched.timestamp, road,
                                           matched.lat, matched.lon)):
            parts.append(column)
        self.n_points += n

    def merge(self, other: "TensorBuilder"):
        """Join ``other``, a builder over the same road axis and settings,
        after this builder, as if its batches had been added here in turn:
        ``other``'s order ids are coded after this builder's, in ``other``'s
        first-seen order. Consumes ``other``, so a later ``add``,
        ``finalize`` or ``merge`` on it raises ``ValueError``.

        Rows after rows are appended as they are. Once either side holds
        pairs, both are joined as pair records: each side's rows are
        sorted into (order, ts) key order first if they are not in it. The
        records are re-based to one day axis, and the one pair that may
        straddle the cut, from this builder's last row to ``other``'s
        first, goes between this builder's pairs and ``other``'s, so the
        speed sums are those of one builder bit for bit. An order on both
        sides of the cut counts once per cell. The joined record is to be
        finalized, not merged again. This is the result of one builder
        only when the rows stay in key order across the cut: when
        ``other``'s first row sorts before this builder's last, or an
        order of ``other`` past its first is already coded here, this
        raises ``ValueError``, and past the key bound of a side it raises
        ``TensorKeyError``; the caller then reads the rows again as one
        range. Both builders stay as they were, but compacted.
        """
        columns = self._stored()
        theirs = other._stored()
        if other is self:
            raise ValueError("a TensorBuilder cannot merge itself")
        if (other.road_ids, other.pair_dt_max_s, other.tz_offset_s) != \
                (self.road_ids, self.pair_dt_max_s, self.tz_offset_s):
            raise ValueError("merged TensorBuilders need the same road axis and settings")
        if columns is not None and theirs is not None:
            other._columns = None
            codes = self._code(other._order_idx)
            theirs[0][:] = [codes[part] for part in theirs[0]]
            for parts, more in zip(columns, theirs):
                parts += more
            self.n_points += other.n_points
            return
        self._compact(sort=True)
        oidx, ids = self._order_idx, list(other._order_idx)
        straddles = bool(ids) and ids[0] in oidx
        if straddles and ids[0] != self._pairs.last[0] or not oidx.keys().isdisjoint(ids[1:]):
            raise ValueError("the merged orders do not follow these in (order, ts) key order")
        other._compact(sort=True)
        front, back = self._pairs, other._pairs
        if front is not None and back is not None:
            if front.n_first is None or back.n_first is None:
                raise ValueError("a joined pair record is finalized, not merged again")
            if straddles and back.first[1] < front.last[1]:
                raise ValueError("the merged rows do not follow these in (order, ts) key order")
            back = _joined_pairs(front, back, len(self.road_ids), self.pair_dt_max_s,
                                 self.tz_offset_s)
        # every id but a straddling first one is new here: codes go on in order
        new = ids[straddles:]
        oidx.update(zip(new, range(len(oidx), len(oidx) + len(new))))
        other._columns = other._pairs = None
        if back is not None:
            self._columns, self._pairs = None, back
        self.n_points += other.n_points

    def __getstate__(self):
        """The builder's state, a pair record as it is and rows with each
        column's chunk parts joined into one array. Unpickled, a column is
        then one block, not many small ones among the loading process's
        other objects, which raised the peak RSS of finalize by about 5 MB
        on the 1M-row city-day benchmark input."""
        state = self.__dict__.copy()
        if self._columns is not None:
            state["_columns"] = tuple([np.concatenate(parts)] if parts else []
                                      for parts in self._columns)
        return state

    def _code(self, order_ids):
        """The int codes of ``order_ids``. Each id in turn that is new to the
        builder takes the next code, so codes follow first-seen order and
        finalize sums pair speeds in the same order under any chunking."""
        oidx = self._order_idx
        return np.fromiter((oidx.setdefault(o, len(oidx)) for o in order_ids),
                           dtype=np.int64, count=len(order_ids))

    def compact(self):
        """Reduce the stored rows to pairs, freeing their columns, if they
        are in (order, ts) key order; otherwise, or if they are past
        finalize's key bound, keep them, each column joined into one part.
        Either way ``finalize`` then gives the same bytes."""
        self._stored()
        try:
            self._compact(sort=False)
        except TensorKeyError:  # finalize raises it from the kept rows
            pass

    def _compact(self, sort):
        """Reduce the stored rows to a _Pairs record in ``_pairs``: as they
        are, if they are in (order, ts) key order, or else sorted into it
        if ``sort`` is true. The rows it keeps, and rows past the key bound,
        on which it raises TensorKeyError as finalize does, stay stored,
        each column joined into one part.

        Holds the joined columns plus about two column-length temporaries
        at a time; pair speeds are evaluated in blocks of ``_PAIR_BLOCK``.
        """
        columns = self._columns
        if columns is None or not self.n_points:
            return
        n_rows = len(self.road_ids)
        order, ts = _join_parts(columns[0]), _join_parts(columns[1])
        t0, t1 = int(ts.min()), int(ts.max())
        day0, day1 = day_slot(np.array([t0, t1]), self.tz_offset_s)[0].tolist()
        n_cols = (day1 - day0 + 1) * SLOTS_PER_DAY
        n_cells = n_rows * n_cols
        key = _packed_key(order, ts, t1 - t0 + 1, t0)
        _check_key(int(order.max()), n_cells)
        # rows sort by one stable (order, ts) key, so equal keys keep their
        # arrival order. Rows grouped by order are sorted runs, which
        # Timsort merges in linear time. Rows in key order, as from a file
        # of orders one after another, each in time order, need no sort: a
        # stable sort of a sorted key is the identity.
        in_order = not (key[1:] < key[:-1]).any()
        if not (in_order or sort):
            return
        rank = None if in_order else np.argsort(key, kind="stable")
        del key
        self._columns = None
        road, lat, lon = (_join_parts(parts) for parts in columns[2:])
        del columns
        if rank is not None:  # one column at a time
            order = order[rank]
            ts = ts[rank]
            road = road[rank]
            lat = lat[rank]
            lon = lon[rank]
            del rank

        day, slot = day_slot(ts, self.tz_offset_s)
        cell = day  # (day - day0) * 96 + slot, then + road * n_cols, in place
        cell -= day0
        cell *= SLOTS_PER_DAY
        cell += slot
        del day, slot
        road *= n_cols
        cell += road
        del road
        _release_freed_heap()  # of slot and road: the one-CPU peak was 15 MB higher
        # codes follow first-seen order, so the first row in key order is
        # of the first id coded and the last row of the last
        first, last = ((order_id, int(ts[i]), int(cell[i]) // n_cols, float(lat[i]),
                        float(lon[i]))
                       for order_id, i in ((next(iter(self._order_idx)), 0),
                                           (next(reversed(self._order_idx)), -1)))

        # speed: pairs of consecutive rows, each in the earlier row's cell
        idx = np.flatnonzero(_pair_starts(order, ts, cell // n_cols, self.pair_dt_max_s))
        # pair k starts at row idx[k] >= k, so the speeds of the pairs before
        # a block go over the latitudes of rows that no later block reads
        for lo in range(0, idx.size, _PAIR_BLOCK):
            a = idx[lo:lo + _PAIR_BLOCK]
            _pair_speeds(lat, lon, ts, a, out=lat[lo:lo + a.size])
        del ts, lon  # before the copy, which would otherwise raise the peak
        _release_freed_heap()  # of ts and lon, as above
        speed = lat[:idx.size].copy()
        del lat
        cell_type = np.min_scalar_type(n_cells - 1)
        pair_cell = cell[idx].astype(cell_type)
        del idx

        # flow: distinct orders per cell. The rows are grouped by order, so
        # the (order, cell) key is nearly sorted; the first of each run of
        # equal keys is one distinct (order, cell)
        key = _packed_key(order, cell, n_cells)
        del order, cell
        key.sort(kind="stable")  # Timsort, linear on sorted runs
        code, flow_cell = np.divmod(_distinct(key), n_cells)
        del key
        self._pairs = _Pairs(day0, day1, t0, t1, pair_cell, speed, flow_cell.astype(cell_type),
                             int(np.searchsorted(code, code[0], "right")),
                             code.size - int(np.searchsorted(code, code[-1])), first, last)

    def finalize(self):
        """Build (flow, speed) matrices over the full road x interval grid,
        from the pair record of ``compact`` or ``merge``, or of the stored
        rows."""
        if self._stored() is not None:
            self._compact(sort=True)
        pairs, self._columns, self._pairs = self._pairs, None, None
        n_rows = len(self.road_ids)
        if pairs is None:
            axis = []
            return (SpatioTemporalMatrix(self.road_ids, axis,
                                         np.zeros((n_rows, 0), dtype=np.int64)),
                    SpatioTemporalMatrix(self.road_ids, axis, np.zeros((n_rows, 0))))
        n_cols = (pairs.day1 - pairs.day0 + 1) * SLOTS_PER_DAY
        n_cells = n_rows * n_cols
        # the key bounds of these rows as one range: joined records pass
        # each side's own
        top = len(self._order_idx) - 1
        _check_key(top, pairs.t1 - pairs.t0 + 1)
        _check_key(top, n_cells)

        # speed: the mean of the pairs starting in each cell. bincount adds
        # the weights one at a time in index order from 0.0, as np.add.at on
        # zeros does, so each cell sums its pairs in key order
        v_sum = np.bincount(pairs.cell, weights=pairs.speed, minlength=n_cells).astype(
            np.float64, copy=False)  # int64 when there is no pair
        v_cnt = np.bincount(pairs.cell, minlength=n_cells)
        np.divide(v_sum, v_cnt, out=v_sum, where=v_cnt > 0)
        del v_cnt
        flow = np.bincount(pairs.flow_cell, minlength=n_cells)

        axis = full_interval_axis(datetime.date.fromordinal(pairs.day0),
                                  datetime.date.fromordinal(pairs.day1))
        return (SpatioTemporalMatrix(self.road_ids, axis, flow.reshape(n_rows, n_cols)),
                SpatioTemporalMatrix(self.road_ids, axis, v_sum.reshape(n_rows, n_cols)))


@dataclass
class _Pairs:
    """A builder's rows, in (order, ts) key order, reduced to what finalize
    reads of them.

    The rows' days run from ``day0`` to ``day1`` (ordinals) and their
    timestamps from ``t0`` to ``t1``. A cell is a road's row on the road
    axis times the columns of those days, plus the column counted from the
    first slot of ``day0``. ``cell`` and ``speed`` hold each pair's cell and
    speed, in key order. ``flow_cell`` holds the cell of each distinct
    (order, cell) key, in key order: the first ``n_first`` are the first
    order's and the last ``n_last`` the last order's (both None on a joined
    record, which merge does not join again). ``first`` and ``last``
    are the first and last rows, as (order id, ts, road row, lat, lon).
    """

    day0: int
    day1: int
    t0: int
    t1: int
    cell: np.ndarray
    speed: np.ndarray
    flow_cell: np.ndarray
    n_first: int | None
    n_last: int | None
    first: tuple
    last: tuple


def _pair_starts(order, ts, road, pair_dt_max_s):
    """Whether each row but the last starts a pair with the next: the same
    order and road, ``0 < dt <= pair_dt_max_s``."""
    ok = order[1:] == order[:-1]
    dt = ts[1:] - ts[:-1]
    ok &= dt > 0
    ok &= dt <= pair_dt_max_s
    del dt
    ok &= road[1:] == road[:-1]
    return ok


def _pair_speeds(lat, lon, ts, a, out=None):
    """The speeds (km/h) of the pairs starting at the rows ``a``."""
    b = a + 1
    d = geo.haversine(lat[a], lon[a], lat[b], lon[b])
    return np.divide(d, (ts[b] - ts[a]) / 3600.0, out=out)


def _joined_pairs(front, back, n_rows, pair_dt_max_s, tz_offset_s):
    """The _Pairs record of ``front``'s rows followed by ``back``'s, which
    must follow them in (order, ts) key order: both re-based to one day
    axis, the pair from ``front``'s last row to ``back``'s first, if they
    make one, between their pairs, and the cells of an order on both sides
    of the cut counted once. Its ``n_first`` and ``n_last`` are None: the
    record is finalized, not joined again."""
    day0, day1 = min(front.day0, back.day0), max(front.day1, back.day1)
    n_cols = (day1 - day0 + 1) * SLOTS_PER_DAY
    cell_type = np.min_scalar_type(n_rows * n_cols - 1)

    def rebased(rec, cell):
        """``cell``, of ``rec``'s grid, on the joined grid."""
        n_own = (rec.day1 - rec.day0 + 1) * SLOTS_PER_DAY
        if n_own == n_cols:  # the same days
            return cell.astype(cell_type, copy=False)
        cell = cell.astype(np.int64)
        road = cell // n_own
        road *= n_cols - n_own
        cell += road
        cell += (rec.day0 - day0) * SLOTS_PER_DAY
        return cell.astype(cell_type)

    # the straddling pair, by the operations that pair the rows of one range
    straddles = front.last[0] == back.first[0]
    _, ts, road, lat, lon = (np.array(x) for x in zip(front.last, back.first))
    cut_cell, cut_speed = np.empty(0, dtype=cell_type), np.empty(0)
    if _pair_starts(np.array([0, 0 if straddles else 1]), ts, road, pair_dt_max_s)[0]:
        day, slot = day_slot(ts[:1], tz_offset_s)
        cut_cell = (road[:1] * n_cols + (day - day0) * SLOTS_PER_DAY + slot).astype(cell_type)
        cut_speed = _pair_speeds(lat, lon, ts, np.array([0]))
    cell = np.concatenate([rebased(front, front.cell), cut_cell, rebased(back, back.cell)])
    speed = np.concatenate([front.speed, cut_speed, back.speed])

    # flow: an order on both sides of the cut holds the front's last keys
    # and the back's first
    head, tail = rebased(front, front.flow_cell), rebased(back, back.flow_cell)
    if straddles:
        both = np.concatenate([head[-front.n_last:], tail[:back.n_first]])
        both.sort()
        head = np.concatenate([head[:-front.n_last], _distinct(both)])
        tail = tail[back.n_first:]
    return _Pairs(day0, day1, min(front.t0, back.t0), max(front.t1, back.t1), cell, speed,
                  np.concatenate([head, tail]), None, None, front.first, back.last)


def _distinct(ascending):
    """The distinct values of the ascending array ``ascending``: the first
    of each run of equal values. (np.unique imports numpy.ma, 9 ms, on its
    first call.)"""
    first = np.empty(ascending.size, dtype=bool)
    first[:1] = True
    np.not_equal(ascending[1:], ascending[:-1], out=first[1:])
    return ascending[first]


_PAIR_BLOCK = 1 << 17  # pairs whose speeds are evaluated at once


def _join_parts(parts):
    """One array of the chunk parts, left in ``parts`` as its only part, so
    that the parts can be freed, and then handing the freed heap back."""
    whole = np.concatenate(parts)
    parts[:] = [whole]
    _release_freed_heap()
    return whole


def _release_freed_heap():
    """Hand the pages of freed malloc blocks back to the OS (glibc's
    ``malloc_trim``; elsewhere nothing happens).

    The chunk parts of a column that the builder has just joined and freed
    are a fifth of the builder's bytes, in blocks between small live
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


def _check_key(top_major, n_minor):
    """TensorKeyError unless the largest packed key of majors up to
    ``top_major`` and ``n_minor`` minor values,
    ``top_major * n_minor + n_minor - 1``, fits in int64."""
    top = top_major * n_minor + n_minor - 1
    if top >= _KEY_LIMIT:
        raise TensorKeyError(f"{top_major + 1} orders x {n_minor} values need "
                             f"sort key {top}, past the largest int64 key "
                             f"{_KEY_LIMIT - 1}")


def _packed_key(major, minor, n_minor, minor0=0):
    """``major * n_minor + (minor - minor0)``, one new int64 array built in
    place. With ``minor - minor0`` in [0, n_minor), its order is that of
    the (major, minor) pairs.

    Raises TensorKeyError as _check_key does.
    """
    _check_key(int(major.max()), n_minor)
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
