"""Road network model, GeoJSON loading, and nearest-segment queries.

The network is immutable after load. Nearest-segment queries go through a
uniform grid index over polyline sub-segments; the index is an accelerator
only and returns exactly what an exhaustive scan would.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import geo
from .errors import NetworkError

logger = logging.getLogger(__name__)

DEFAULT_MAX_DIST_KM = 0.05  # 50 m matching gate

_CELL_DEG = 0.005  # ~550 m grid cell
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
    bbox: tuple  # (min_lat, min_lon, max_lat, max_lon)
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
    (duplicate ids are fatal; a float id must be integral);
    ``free_flow_kmh`` is optional and, if given, a positive finite number.
    Each position is an array of 2 or 3 numbers, [lon, lat] or
    [lon, lat, alt] in degrees, lon in [-180, 180] and lat in [-90, 90];
    altitude is ignored.
    Features with fewer than 2 vertices are skipped and counted. A document
    that is not valid JSON of this shape raises NetworkError.
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

    segments: dict[int, RoadSegment] = {}
    skipped = 0
    for n, feat in enumerate(features):
        props = feat.get("properties") if isinstance(feat, dict) else None
        if not isinstance(props, dict) or "id" not in props:
            raise NetworkError(f"feature #{n} has no 'properties' object with an 'id'")
        seg_id = _segment_id(props["id"])
        if seg_id in segments:
            raise NetworkError(f"duplicate segment id {seg_id}")
        geometry = feat.get("geometry") or {}
        if not isinstance(geometry, dict):
            raise NetworkError(f"segment {seg_id}: geometry is not an object")
        coords = geometry.get("coordinates") or []
        if not isinstance(coords, list):
            raise NetworkError(f"segment {seg_id}: coordinates are not an array")
        if len(coords) < 2:
            skipped += 1
            logger.warning("segment %d has %d vertices, skipped", seg_id, len(coords))
            continue
        try:
            polyline = tuple(map(_vertex, coords))
        except ValueError as exc:
            raise NetworkError(f"segment {seg_id}: {exc}") from None
        length = geo.polyline_length_km(polyline)
        if length <= 0.0:
            skipped += 1
            logger.warning("segment %d has zero length, skipped", seg_id)
            continue
        ff = props.get("free_flow_kmh")
        if ff is not None:
            try:
                ff = float(ff)
            except (TypeError, ValueError):
                raise NetworkError(f"segment {seg_id}: free_flow_kmh {ff!r} "
                                   f"is not a number") from None
            if not 0 < ff < math.inf:
                raise NetworkError(f"segment {seg_id}: free_flow_kmh must be positive and finite")
        segments[seg_id] = RoadSegment(seg_id, polyline, length, ff)

    if segments:
        lats = [v[0] for s in segments.values() for v in s.polyline]
        lons = [v[1] for s in segments.values() for v in s.polyline]
        bbox = (min(lats), min(lons), max(lats), max(lons))
    else:
        bbox = (0.0, 0.0, 0.0, 0.0)
    return RoadNetwork(segments, bbox, skipped)


def _segment_id(raw) -> int:
    try:
        seg_id = int(raw)
    except (TypeError, ValueError, OverflowError):
        seg_id = None
    if seg_id is None or (isinstance(raw, float) and seg_id != raw) or seg_id not in _ID_RANGE:
        raise NetworkError(f"feature id {raw!r} is not an integer in the int64 range")
    return seg_id


def _vertex(pos) -> tuple[float, float]:
    """(lat, lon) of one position; ValueError unless it is an array of 2 or 3
    numbers with lon in [-180, 180] and lat in [-90, 90]."""
    if not (isinstance(pos, (list, tuple)) and len(pos) in (2, 3)
            and all(isinstance(c, (int, float)) and type(c) is not bool for c in pos)):
        raise ValueError("coordinates must be [lon, lat] or [lon, lat, alt] arrays of numbers")
    if not (-180 <= pos[0] <= 180 and -90 <= pos[1] <= 90):
        raise ValueError("a position is not a finite lon in [-180, 180] and lat in [-90, 90]")
    return float(pos[1]), float(pos[0])


def point_to_segment_distance(lat: float, lon: float, seg: RoadSegment) -> float:
    """Minimum distance (km) from a point to a segment's polyline."""
    v = np.asarray(seg.polyline, dtype=np.float64)
    d, _ = geo.min_dist_to_subsegments(lat, lon, v[:-1, 0], v[:-1, 1], v[1:, 0], v[1:, 1])
    return float(np.min(d))


class SpatialIndex:
    """Uniform-grid index over polyline sub-segments.

    Sub-segments are registered in every grid cell their bounding box
    overlaps; a query inspects the fixed neighborhood of cells that covers
    its distance gate around the point's cell.
    """

    def __init__(self, net: RoadNetwork, cell_deg: float = _CELL_DEG):
        self.cell_deg = cell_deg
        a_lat, a_lon, b_lat, b_lon, seg_ids = [], [], [], [], []
        for seg_id in net.ordered_ids():
            v = net.segments[seg_id].polyline
            for i in range(len(v) - 1):
                a_lat.append(v[i][0])
                a_lon.append(v[i][1])
                b_lat.append(v[i + 1][0])
                b_lon.append(v[i + 1][1])
                seg_ids.append(seg_id)
        self.a_lat = np.asarray(a_lat)
        self.a_lon = np.asarray(a_lon)
        self.b_lat = np.asarray(b_lat)
        self.b_lon = np.asarray(b_lon)
        self.seg_ids = np.asarray(seg_ids, dtype=np.int64)
        self.n_sub = len(seg_ids)

        self.cells: dict[tuple, list] = {}
        for i in range(self.n_sub):
            i0 = math.floor(min(self.a_lat[i], self.b_lat[i]) / cell_deg)
            i1 = math.floor(max(self.a_lat[i], self.b_lat[i]) / cell_deg)
            j0 = math.floor(min(self.a_lon[i], self.b_lon[i]) / cell_deg)
            j1 = math.floor(max(self.a_lon[i], self.b_lon[i]) / cell_deg)
            for ci in range(i0, i1 + 1):
                for cj in range(j0, j1 + 1):
                    self.cells.setdefault((ci, cj), []).append(i)
        self._neighborhood_cache: dict[tuple, np.ndarray] = {}
        max_lat = float(np.max(np.abs(np.concatenate([self.a_lat, [0.0]])))) if self.n_sub else 0.0
        self._cos_floor = math.cos(math.radians(min(89.0, max_lat + 1.0)))

    def _candidates(self, ci, cj, width):
        key = (ci, cj, width)
        cached = self._neighborhood_cache.get(key)
        if cached is not None:
            return cached
        idx: list = []
        for di in range(-width, width + 1):
            for dj in range(-width, width + 1):
                idx.extend(self.cells.get((ci + di, cj + dj), ()))
        # sorted unique indices: argmin then resolves ties by lowest seg id
        out = np.unique(np.asarray(idx, dtype=np.int64))
        self._neighborhood_cache[key] = out
        return out

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

        near = np.full(n, -1, dtype=np.int64)  # nearest sub-segment in the gate
        near_t = np.zeros(n)  # projection parameter of the closest point on it
        radius_deg = max_dist_km / (geo.KM_PER_DEG * self._cos_floor)
        width = int(math.ceil(radius_deg / self.cell_deg))
        ci = np.floor(lats / self.cell_deg).astype(np.int64)
        cj = np.floor(lons / self.cell_deg).astype(np.int64)
        # group the points by grid cell: sort by (ci, cj), split at key changes
        by_cell = np.lexsort((cj, ci))
        ci_s, cj_s = ci[by_cell], cj[by_cell]
        change = np.flatnonzero((ci_s[1:] != ci_s[:-1]) | (cj_s[1:] != cj_s[:-1])) + 1
        edges = [0, *change.tolist(), n]
        for s, e in zip(edges, edges[1:]):
            cand = self._candidates(int(ci_s[s]), int(cj_s[s]), width)
            if cand.size == 0:
                continue
            pts = by_cell[s:e]
            d, t = geo.min_dist_to_subsegments(
                lats[pts, None], lons[pts, None],
                self.a_lat[cand][None, :], self.a_lon[cand][None, :],
                self.b_lat[cand][None, :], self.b_lon[cand][None, :],
            )
            k = np.argmin(d, axis=1)
            rows = np.arange(pts.size)
            dmin = d[rows, k]
            ok = dmin <= max_dist_km
            rows, k, pts = rows[ok], k[ok], pts[ok]
            near[pts] = cand[k]
            near_t[pts] = t[rows, k]
            out_d[pts] = dmin[ok]

        hit = near >= 0
        i, t = near[hit], near_t[hit]
        out_id[hit] = self.seg_ids[i]
        out_lat[hit] = self.a_lat[i] + t * (self.b_lat[i] - self.a_lat[i])
        out_lon[hit] = self.a_lon[i] + t * (self.b_lon[i] - self.a_lon[i])
        return out_id, out_d, out_lat, out_lon
