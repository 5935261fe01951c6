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

    Each feature needs a unique integer ``id`` property (duplicate ids are
    fatal); ``free_flow_kmh`` is optional and, if given, a positive finite
    number. Coordinates are [lon, lat] or [lon, lat, alt] positions in
    degrees, lon in [-180, 180] and lat in [-90, 90]; altitude is ignored.
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
        try:
            seg_id = int(props["id"])
        except (TypeError, ValueError, OverflowError):
            raise NetworkError(f"feature id {props['id']!r} is not an integer") from None
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
            polyline = tuple((float(lat), float(lon)) for lon, lat, *_alt in coords)
        except (TypeError, ValueError):
            raise NetworkError(f"segment {seg_id}: coordinates must be "
                               f"[lon, lat] or [lon, lat, alt] positions") from None
        if not all(-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0 for lat, lon in polyline):
            raise NetworkError(f"segment {seg_id}: a position is not a finite "
                               f"lon in [-180, 180] and lat in [-90, 90]")
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


def point_to_segment_distance(lat: float, lon: float, seg: RoadSegment) -> float:
    """Minimum distance (km) from a point to a segment's polyline."""
    v = np.asarray(seg.polyline, dtype=np.float64)
    d, _ = geo.min_dist_to_subsegments(lat, lon, v[:-1, 0], v[:-1, 1], v[1:, 0], v[1:, 1])
    return float(np.min(d))


def nearest_segment_scan(lat, lon, net: RoadNetwork, max_dist_km=None):
    """Exhaustive nearest-segment scan; ties broken by lowest id.

    Reference implementation used as the oracle for the spatial index.
    """
    best = None
    for seg_id in net.ordered_ids():
        d = point_to_segment_distance(lat, lon, net.segments[seg_id])
        if best is None or d < best[1]:
            best = (seg_id, d)
    if best is None:
        return None
    if max_dist_km is not None and best[1] > max_dist_km:
        return None
    return best


class SpatialIndex:
    """Uniform-grid index over polyline sub-segments.

    Sub-segments are registered in every grid cell their bounding box
    overlaps; gated queries inspect a fixed neighborhood, ungated queries
    expand rings until the best candidate beats the ring lower bound.
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

    def _ring(self, ci, cj, r):
        if r == 0:
            return [(ci, cj)]
        cells = []
        for dj in range(-r, r + 1):
            cells.append((ci - r, cj + dj))
            cells.append((ci + r, cj + dj))
        for di in range(-r + 1, r):
            cells.append((ci + di, cj - r))
            cells.append((ci + di, cj + r))
        return cells

    def nearest(self, lat, lon, max_dist_km=None):
        """Nearest segment to a point: (seg_id, dist_km, c_lat, c_lon) or None.

        With ``max_dist_km`` set, returns None when nothing lies within the
        gate. Ties are broken by lowest segment id.
        """
        if self.n_sub == 0:
            return None
        ci = math.floor(lat / self.cell_deg)
        cj = math.floor(lon / self.cell_deg)

        if max_dist_km is not None:
            radius_deg = max_dist_km / (geo.KM_PER_DEG * self._cos_floor)
            width = int(math.ceil(radius_deg / self.cell_deg))
            cand = self._candidates(ci, cj, width)
            if cand.size == 0:
                return None
            hit = self._best(lat, lon, cand)
            return hit if hit[1] <= max_dist_km else None

        best = None
        seen: list = []
        max_r = 2 + int(
            max(abs(ci), abs(cj)) + max(abs(k[0]) for k in self.cells) + max(abs(k[1]) for k in self.cells)
        )
        for r in range(max_r + 1):
            new = []
            for cell in self._ring(ci, cj, r):
                new.extend(self.cells.get(cell, ()))
            seen.extend(new)
            if best is None and not seen:
                continue
            if new or best is None:
                cand = np.unique(np.asarray(seen, dtype=np.int64))
                best = self._best(lat, lon, cand)
            # anything unscanned is at chebyshev cell distance > r
            bound = r * self.cell_deg * geo.KM_PER_DEG * self._cos_floor
            if best is not None and best[1] <= bound:
                break
        return best

    def _best(self, lat, lon, cand):
        d, t = geo.min_dist_to_subsegments(
            lat, lon, self.a_lat[cand], self.a_lon[cand], self.b_lat[cand], self.b_lon[cand]
        )
        k = int(np.argmin(d))
        i = int(cand[k])
        tk = float(t[k])
        c_lat = self.a_lat[i] + tk * (self.b_lat[i] - self.a_lat[i])
        c_lon = self.a_lon[i] + tk * (self.b_lon[i] - self.a_lon[i])
        return int(self.seg_ids[i]), float(d[k]), float(c_lat), float(c_lon)

    def nearest_batch(self, lats, lons, max_dist_km):
        """Vectorized gated nearest-segment query.

        Returns (seg_id, dist_km) int64/float64 arrays; seg_id is -1 where
        no segment lies within the gate.
        """
        lats = np.asarray(lats, dtype=np.float64)
        lons = np.asarray(lons, dtype=np.float64)
        n = lats.size
        out_id = np.full(n, -1, dtype=np.int64)
        out_d = np.full(n, np.inf)
        if self.n_sub == 0 or n == 0:
            return out_id, out_d

        radius_deg = max_dist_km / (geo.KM_PER_DEG * self._cos_floor)
        width = int(math.ceil(radius_deg / self.cell_deg))
        ci = np.floor(lats / self.cell_deg).astype(np.int64)
        cj = np.floor(lons / self.cell_deg).astype(np.int64)
        keys = np.stack([ci, cj], axis=1)
        uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
        for u in range(uniq.shape[0]):
            cand = self._candidates(int(uniq[u, 0]), int(uniq[u, 1]), width)
            if cand.size == 0:
                continue
            pts = np.nonzero(inverse == u)[0]
            d, _ = geo.min_dist_to_subsegments(
                lats[pts, None], lons[pts, None],
                self.a_lat[cand][None, :], self.a_lon[cand][None, :],
                self.b_lat[cand][None, :], self.b_lon[cand][None, :],
            )
            k = np.argmin(d, axis=1)
            dmin = d[np.arange(pts.size), k]
            ok = dmin <= max_dist_km
            out_id[pts[ok]] = self.seg_ids[cand[k[ok]]]
            out_d[pts[ok]] = dmin[ok]
        return out_id, out_d


def nearest_segment(lat, lon, net: RoadNetwork, max_dist_km=DEFAULT_MAX_DIST_KM):
    """Nearest segment within a distance gate: (seg_id, dist_km) or None."""
    hit = net.index.nearest(lat, lon, max_dist_km)
    if hit is None:
        return None
    return hit[0], hit[1]
