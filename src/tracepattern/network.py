"""Road network model, GeoJSON loading, and nearest-segment queries.

The network is immutable after load. Nearest-segment queries go through a
uniform grid index over polyline sub-segments, which keeps the candidates
of each grid cell it has been queried at, per distance gate; the index is
an accelerator only and returns exactly what an exhaustive scan would.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import geo
from .errors import NetworkError

logger = logging.getLogger(__name__)

DEFAULT_MAX_DIST_KM = 0.05  # 50 m matching gate

_CELL_DEG = 0.002  # ~220 m grid cell
_BLOCK = 1 << 14  # points of one nearest_batch call matched at once
_SLACK = 1e-6  # relative growth of the gate radii in the candidate filter
_ID_RANGE = range(-2**63, 2**63)  # int64, the dtype of road ids in arrays


@dataclass(frozen=True)
class RoadSegment:
    """One road: a (lat, lon) polyline with derived geodesic length."""

    id: int
    polyline: tuple  # ((lat, lon), ...), at least 2 vertices
    length_km: float
    free_flow_kmh: float | None = None


@dataclass
class RoadNetwork:
    segments: dict  # id -> RoadSegment
    skipped_features: int = 0
    _index: "SpatialIndex" = field(default=None, repr=False, compare=False)

    def ordered_ids(self):
        return sorted(self.segments)

    @property
    def index(self) -> "SpatialIndex":
        if self._index is None:
            self._index = SpatialIndex(self)
        return self._index


def load_network(path_or_obj) -> RoadNetwork:
    """Load a GeoJSON-style document of LineString features.

    Each feature needs a unique integer ``id`` property in the int64 range
    (duplicate ids are fatal, a skipped feature's id included; a float id
    must be integral); ``free_flow_kmh`` is optional and, if given, a
    positive finite number. Booleans are neither ids nor numbers.
    Each position is an array of 2 or 3 numbers, [lon, lat] or
    [lon, lat, alt] in degrees, lon in [-180, 180] and lat in [-90, 90];
    altitude is ignored. A geometry object's ``type`` must be
    "LineString". A null or missing geometry or coordinates mean no
    vertices. Features with fewer than 2 vertices or zero length are
    skipped and counted. A document that is not valid JSON of this shape
    raises NetworkError.
    """
    if isinstance(path_or_obj, dict):
        doc = path_or_obj
    else:
        try:
            with open(path_or_obj, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError included
            raise NetworkError(f"{path_or_obj} is not a JSON document: {exc}") from None
    features = doc.get("features") if isinstance(doc, dict) else None
    if not isinstance(features, list):
        raise NetworkError("document has no 'features' array")

    seen = set()
    ids, positions, free_flows = [], [], []  # of the features with 2+ vertices
    skipped = 0
    try:
        for n, feat in enumerate(features):
            props = feat.get("properties") if isinstance(feat, dict) else None
            if not isinstance(props, dict) or "id" not in props:
                raise NetworkError(f"feature #{n} has no 'properties' object with an 'id'")
            seg_id = _segment_id(props["id"])
            if seg_id in seen:
                raise NetworkError(f"duplicate segment id {seg_id}")
            seen.add(seg_id)
            geometry = feat.get("geometry")
            if geometry is None:
                geometry = {}
            elif not isinstance(geometry, dict):
                raise NetworkError(f"segment {seg_id}: geometry is not an object")
            elif geometry.get("type") != "LineString":
                raise NetworkError(f"segment {seg_id}: geometry type "
                                   f"{geometry.get('type')!r} is not 'LineString'")
            coords = geometry.get("coordinates")
            if coords is None:
                coords = []
            elif not isinstance(coords, list):
                raise NetworkError(f"segment {seg_id}: coordinates are not an array")
            if len(coords) < 2:
                skipped += 1
                logger.warning("segment %d has %d vertices, skipped", seg_id, len(coords))
                continue
            ids.append(seg_id)
            positions.append(coords)  # checked by _vertices
            free_flows.append(_free_flow(seg_id, props.get("free_flow_kmh")))
    except NetworkError:
        _vertices(ids, positions)  # a bad position in an earlier feature comes first
        raise
    v, n_vert = _vertices(ids, positions)
    ends = np.cumsum(n_vert).tolist()
    vertices = list(map(tuple, v.tolist()))
    polylines = [tuple(vertices[end - n:end]) for end, n in zip(ends, n_vert.tolist())]

    lengths = _polyline_lengths(v, n_vert)
    kept = lengths > 0.0
    for seg_id in itertools.compress(ids, ~kept):
        logger.warning("segment %d has zero length, skipped", seg_id)
    skipped += len(ids) - int(np.count_nonzero(kept))
    segments = {seg_id: RoadSegment(seg_id, polyline, length, ff)
                for seg_id, polyline, length, ff, keep
                in zip(ids, polylines, lengths.tolist(), free_flows, kept.tolist()) if keep}
    return RoadNetwork(segments, skipped)


def _segment_id(raw) -> int:
    try:
        seg_id = None if isinstance(raw, (bool, str)) else int(raw)
    except (TypeError, ValueError, OverflowError):
        seg_id = None
    if seg_id is None or (isinstance(raw, float) and seg_id != raw) or seg_id not in _ID_RANGE:
        raise NetworkError(f"feature id {raw!r} is not an integer in the int64 range")
    return seg_id


def _free_flow(seg_id, raw) -> float | None:
    """The ``free_flow_kmh`` of road ``seg_id``: None or a positive finite float."""
    if raw is None:
        return None
    try:
        if isinstance(raw, bool):
            raise TypeError
        ff = float(raw)
    except (TypeError, ValueError):
        raise NetworkError(f"segment {seg_id}: free_flow_kmh {raw!r} is not a number") from None
    except OverflowError:  # an int beyond the float range
        ff = math.inf
    if not 0 < ff < math.inf:
        raise NetworkError(f"segment {seg_id}: free_flow_kmh must be positive and finite")
    return ff


def _vertex(pos) -> tuple[float, float]:
    """(lat, lon) of one position; ValueError unless it is an array of 2 or 3
    numbers with lon in [-180, 180] and lat in [-90, 90]."""
    if not (isinstance(pos, (list, tuple)) and len(pos) in (2, 3)
            and all(isinstance(c, (int, float)) and type(c) is not bool for c in pos)):
        raise ValueError("coordinates must be [lon, lat] or [lon, lat, alt] arrays of numbers")
    if not (-180 <= pos[0] <= 180 and -90 <= pos[1] <= 90):
        raise ValueError("a position is not a finite lon in [-180, 180] and lat in [-90, 90]")
    return float(pos[1]), float(pos[0])


def _vertices(ids, positions):
    """(v, n_vert): the (lat, lon) vertices of the roads ``ids``, whose
    positions are ``positions``, as one (n, 2) float64 array, road after
    road, and each road's vertex count. NetworkError naming the first road
    with a position that ``_vertex`` rejects.

    The positions are checked as one array when all of them are lists or
    tuples of ints and floats of one length; anything else, and any
    failure, goes through ``_vertex`` position by position.
    """
    n_vert = np.fromiter(map(len, positions), dtype=np.int64, count=len(positions))
    flat = list(itertools.chain.from_iterable(positions))
    widths = set(map(len, flat)) if set(map(type, flat)) <= {list, tuple} else None
    if (widths in ({2}, {3})
            and set(map(type, itertools.chain.from_iterable(flat))) <= {int, float}):
        width = widths.pop()
        try:
            lon_lat = np.fromiter(itertools.chain.from_iterable(flat), dtype=np.float64,
                                  count=width * len(flat)).reshape(-1, width)[:, :2]
        except OverflowError:  # an int beyond the float range
            pass
        else:
            lon, lat = lon_lat.T
            if ((lon >= -180.0) & (lon <= 180.0) & (lat >= -90.0) & (lat <= 90.0)).all():
                return lon_lat[:, ::-1].copy(), n_vert
    polylines = []
    for seg_id, coords in zip(ids, positions):
        try:
            polylines.append(tuple(map(_vertex, coords)))
        except ValueError as exc:
            raise NetworkError(f"segment {seg_id}: {exc}") from None
    return _flatten(polylines)


def _flatten(polylines):
    """(v, n_vert): the vertices of a list of (lat, lon) polylines as one
    (n, 2) float64 array, polyline after polyline, and each one's vertex count."""
    n_vert = np.fromiter(map(len, polylines), dtype=np.int64, count=len(polylines))
    coords = itertools.chain.from_iterable(itertools.chain.from_iterable(polylines))
    v = np.fromiter(coords, dtype=np.float64, count=2 * int(n_vert.sum()))
    return v.reshape(-1, 2), n_vert


def _subsegments(v, n_vert):
    """(a, b): the first and last vertex of every straight piece of the
    flattened polylines, polyline after polyline; each has 2+ vertices."""
    # vertex k starts a sub-segment unless it ends its polyline
    starts = np.ones(len(v), dtype=bool)
    starts[np.cumsum(n_vert) - 1] = False
    return v[starts], v[np.roll(starts, 1)]


def _polyline_lengths(v, n_vert):
    """The haversine length of each flattened polyline, from one
    ``geo.haversine`` call over all sub-segments.

    Each polyline's sum is one C-order row of the polylines with its vertex
    count, so that it is pairwise like ``np.sum`` over that polyline's
    sub-segments alone; ``np.add.reduceat`` sums in another order.
    """
    a, b = _subsegments(v, n_vert)
    d = geo.haversine(a[:, 0], a[:, 1], b[:, 0], b[:, 1])
    n_sub = n_vert - 1
    first = np.cumsum(n_sub) - n_sub
    lengths = np.empty(n_vert.size)
    # the distinct counts; np.unique would map numpy's sort kernels, 1.4 MB of RSS
    for n in np.flatnonzero(np.bincount(n_sub)).tolist():
        rows = np.flatnonzero(n_sub == n)
        lengths[rows] = d[first[rows, None] + np.arange(n)].sum(axis=1)
    return lengths


def _ranges(starts, counts):
    """Concatenation of ``arange(s, s + c)`` for each start s and count c."""
    ends = np.cumsum(counts)
    return np.repeat(starts - ends + counts, counts) + np.arange(ends[-1] if ends.size else 0)


def _cell_key(ci, cj):
    """One sortable int64 key per grid cell, ordered by row ci, then column cj."""
    return (ci << 32) + cj


def _cell(deg):
    # clipped so that _cell_key stays injective; no road lies that far out
    return np.clip(np.floor(deg / _CELL_DEG), -2**30, 2**30).astype(np.int64)


class SpatialIndex:
    """Uniform-grid index over polyline sub-segments.

    Sub-segments are registered in every grid cell their bounding box
    overlaps, as a CSR table: sorted cell keys, offsets and sub-segment ids.
    The candidates of a grid cell at a distance gate are the sub-segments
    that can lie within the gate of some point in the cell. They are worked
    out once per cell and gate, the first time a query meets the cell, and
    kept in a memo per gate, again as a CSR table. A query looks up each
    point's cell in it and measures each point against its candidates one
    candidate slot at a time, for a block of points at a time.
    """

    def __init__(self, net: RoadNetwork):
        ids = net.ordered_ids()
        v, n_vert = _flatten([net.segments[s].polyline for s in ids])
        a, b = _subsegments(v, n_vert)
        # rows a_lat, a_lon, b_lat, b_lon: one take gathers a candidate's ends
        self.ends = np.stack([a[:, 0], a[:, 1], b[:, 0], b[:, 1]])
        self.a_lat, self.a_lon, self.b_lat, self.b_lon = self.ends
        self.seg_ids = np.repeat(np.asarray(ids, dtype=np.int64), n_vert - 1)
        self.n_sub = len(self.seg_ids)
        self.lat_lo = np.minimum(self.a_lat, self.b_lat)
        self.lat_hi = np.maximum(self.a_lat, self.b_lat)
        self.lon_lo = np.minimum(self.a_lon, self.b_lon)
        self.lon_hi = np.maximum(self.a_lon, self.b_lon)

        i0, i1 = _cell(self.lat_lo), _cell(self.lat_hi)
        j0 = _cell(self.lon_lo)
        n_j = _cell(self.lon_hi) - j0 + 1
        n_cells = (i1 - i0 + 1) * n_j
        sub = np.repeat(np.arange(self.n_sub), n_cells)
        k = _ranges(np.zeros_like(n_cells), n_cells)  # rank of the cell within its sub-segment
        keys = _cell_key(i0[sub] + k // n_j[sub], j0[sub] + k % n_j[sub])
        order = np.argsort(keys, kind="stable")  # sub-segments ascending within a cell
        self.cell_keys, first = np.unique(keys[order], return_index=True)
        self.cell_start = np.append(first, order.size)
        self.cell_subs = sub[order]
        # the grid rows that hold registered cells
        self.row_lo, self.row_hi = (int(i0.min()), int(i1.max())) if self.n_sub else (0, -1)
        self.max_abs_lat = float(np.max(np.abs(v[:, 0]), initial=0.0))
        # max_dist_km -> (keys, start, subs): the sorted keys of the cells
        # queried at that gate, and their candidates, cell k's ascending in
        # subs[start[k]:start[k + 1]]
        self._memo = {}

    def _radii(self, max_dist_km):
        """(r_lat, r_lon): a road within the gate of a point has its closest
        point within these degrees of latitude and longitude of it.

        Such a point lies within r_lat of a road's latitudes, so the cosine
        of its latitude is at least that at ``max_abs_lat + r_lat``. The
        slack absorbs rounding. 360 degrees, the cap, cover the globe.
        """
        r_lat = max_dist_km / geo.KM_PER_DEG * (1.0 + _SLACK)
        cos_min = math.cos(math.radians(min(self.max_abs_lat + r_lat, 90.0)))
        return min(r_lat, 360.0), min(r_lat / cos_min, 360.0)

    def _cell_candidates(self, ci, cj, r_lat, r_lon):
        """Per occupied cell (ci[u], cj[u]): the sub-segments whose bounding
        box, grown by r_lat and r_lon degrees, meets the cell's box.

        Returns (counts, subs): ``subs`` holds each cell's candidates in
        ascending order, cell after cell, ``counts[u]`` of them for cell u.
        """
        width = int(r_lon // _CELL_DEG) + 1  # r_lon >= r_lat
        # the neighbourhood's rows that hold registered cells, one range of keys each
        lo = np.maximum(ci - width, self.row_lo)
        n_rows = np.maximum(np.minimum(ci + width, self.row_hi) - lo + 1, 0)
        u = np.repeat(np.arange(ci.size), n_rows)
        row = _ranges(lo, n_rows)
        first = np.searchsorted(self.cell_keys, _cell_key(row, cj[u] - width), "left")
        last = np.searchsorted(self.cell_keys, _cell_key(row, cj[u] + width), "right")
        s, e = self.cell_start[first], self.cell_start[last]
        u = np.repeat(u, e - s)
        sub = self.cell_subs[_ranges(s, e - s)]
        lat0, lon0 = ci[u] * _CELL_DEG, cj[u] * _CELL_DEG
        meets = ((self.lat_lo[sub] - r_lat <= lat0 + _CELL_DEG)
                 & (self.lat_hi[sub] + r_lat >= lat0)
                 & (self.lon_lo[sub] - r_lon <= lon0 + _CELL_DEG)
                 & (self.lon_hi[sub] + r_lon >= lon0))
        # a sub-segment registered in several cells of the neighbourhood
        # once. A stable sort of the ascending runs of each cell takes a
        # quarter of the time of np.unique, which hashes int64 in numpy 2.4.
        pair = np.sort(u[meets] * self.n_sub + sub[meets], kind="stable")
        first = np.ones(pair.size, dtype=bool)
        first[1:] = pair[1:] != pair[:-1]
        pair = pair[first]
        return np.bincount(pair // self.n_sub, minlength=ci.size), pair % self.n_sub

    def _candidates(self, ci, cj, max_dist_km):
        """(subs, start, count): the memo's candidate table at the gate
        ``max_dist_km``, and where the candidates of each cell (ci[k], cj[k])
        start in it and how many there are. Cells not in the memo yet are
        added to it first."""
        empty = (np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64),
                 np.empty(0, dtype=np.int64))
        keys, start, subs = self._memo.get(max_dist_km, empty)
        key = _cell_key(ci, cj)
        pos = np.searchsorted(keys, key)
        new = keys.take(pos, mode="clip") != key if keys.size else np.ones(key.size, bool)
        if new.any():
            # decoded from each new cell's first point: key >> 32 is ci - 1
            # where cj < 0
            new_keys, first = np.unique(key[new], return_index=True)
            at = np.flatnonzero(new)[first]
            n_cand, cand = self._cell_candidates(ci[at], cj[at], *self._radii(max_dist_km))
            keys = np.concatenate([keys, new_keys])
            by_key = np.argsort(keys, kind="stable")
            counts = np.concatenate([np.diff(start), n_cand])[by_key]
            starts = np.concatenate([start[:-1], subs.size + np.cumsum(n_cand) - n_cand])
            subs = np.concatenate([subs, cand])[_ranges(starts[by_key], counts)]
            keys = keys[by_key]
            start = np.concatenate([[0], np.cumsum(counts)])
            self._memo[max_dist_km] = keys, start, subs
            pos = np.searchsorted(keys, key)
        return subs, start[pos], start[pos + 1] - start[pos]

    def nearest_batch(self, lats, lons, max_dist_km):
        """Vectorized gated nearest-segment query.

        Returns (seg_id, dist_km, c_lat, c_lon) arrays: the nearest segment,
        the distance to it and the closest point on it. Where no segment
        lies within the gate, seg_id is -1, dist_km inf and c_lat, c_lon NaN.
        Ties are broken by lowest segment id.
        """
        lats = np.asarray(lats, dtype=np.float64)
        lons = np.asarray(lons, dtype=np.float64)
        n = lats.size
        out_id = np.full(n, -1, dtype=np.int64)
        out_d = np.full(n, np.inf)
        out_lat = np.full(n, np.nan)
        out_lon = np.full(n, np.nan)
        if self.n_sub == 0 or n == 0:
            return out_id, out_d, out_lat, out_lon

        max_dist_km = float(max_dist_km)
        for lo in range(0, n, _BLOCK):
            lat, lon = lats[lo:lo + _BLOCK], lons[lo:lo + _BLOCK]
            subs, start, count = self._candidates(_cell(lat), _cell(lon), max_dist_km)
            # by candidate count, most first: the points with a j-th
            # candidate are a prefix, n_slot[j] long. A count rank of 8 or
            # 16 bits sorts by radix.
            top = int(count.max())
            by_count = np.argsort((top - count).astype(np.min_scalar_type(top)), kind="stable")
            n_slot = count.size - np.cumsum(np.bincount(count))[:-1]
            lat, lon, start = lat[by_count], lon[by_count], start[by_count]
            kx = geo.lon_km_per_deg(lat)
            best_d = np.full(count.size, np.inf)
            best = np.zeros(count.size, dtype=np.int64)  # nearest sub-segment so far
            best_t = np.zeros(count.size)  # projection parameter of its closest point
            for j, m in enumerate(n_slot.tolist()):
                sub = subs[start[:m] + j]
                d, t = geo.min_dist_at_scale(lat[:m], lon[:m], kx[:m],
                                             *self.ends.take(sub, axis=1))
                # strictly nearer: candidates ascend, so ties keep the lowest id
                nearer = d < best_d[:m]
                np.copyto(best_d[:m], d, where=nearer)
                np.copyto(best[:m], sub, where=nearer)
                np.copyto(best_t[:m], t, where=nearer)
            hit = best_d <= max_dist_km
            rows = lo + by_count[hit]
            i, t = best[hit], best_t[hit]
            out_d[rows] = best_d[hit]
            out_id[rows] = self.seg_ids[i]
            out_lat[rows] = self.a_lat[i] + t * (self.b_lat[i] - self.a_lat[i])
            out_lon[rows] = self.a_lon[i] + t * (self.b_lon[i] - self.a_lon[i])
        return out_id, out_d, out_lat, out_lon
