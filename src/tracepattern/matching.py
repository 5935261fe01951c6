"""Constant-shift trace correction and nearest-road labeling.

A single global offset is estimated from a sample of pings as the
iterated component-wise median of point-to-road displacement vectors,
then applied to every TraceBatch before nearest-segment matching.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import OffsetCapError, OffsetEstimationError
from .geo import KM_PER_DEG
from .ingest import TraceBatch
from .network import DEFAULT_MAX_DIST_KM, RoadNetwork

logger = logging.getLogger(__name__)

OFFSET_CAP_DEG = 0.01  # ~1.1 km; beyond this the data/network pairing is wrong
DEFAULT_MIN_SAMPLE = 1000

_MAX_ITER = 25
_CONVERGENCE_DEG = 1e-7


@dataclass(frozen=True)
class OffsetVector:
    """Constant coordinate correction, degrees."""

    dlat: float
    dlon: float

    def __post_init__(self):
        if abs(self.dlat) > OFFSET_CAP_DEG or abs(self.dlon) > OFFSET_CAP_DEG:
            raise OffsetCapError(
                f"offset ({self.dlat:+.5f}, {self.dlon:+.5f})° exceeds "
                f"±{OFFSET_CAP_DEG}° cap; check data/network pairing"
            )


_MIN_GROUP_FRACTION = 0.05
_ZERO_DISPLACEMENT_DEG = 1e-9
# a point shifted by at most the cap on each axis lies within this distance
# (~1.624 km) of the road it would match unshifted
_OFFSET_GATE_KM = OFFSET_CAP_DEG * KM_PER_DEG * math.sqrt(2) + DEFAULT_MAX_DIST_KM


def _median_step(lats, lons, net: RoadNetwork):
    """One correction step from point-to-road displacement vectors.

    Snapping a point to the nearest road only recovers the displacement
    component normal to that road (the along-road component is always 0),
    so each component's median is taken over the points whose displacement
    is dominated by that axis. Components without enough informative
    points step by 0. Points with no road within ``_OFFSET_GATE_KM`` give
    no displacement; if they are the majority, the offset cannot be within
    the cap and OffsetCapError is raised.
    """
    n = len(lats)
    index = net.index
    seg_ids, _, sub, t = index.nearest_batch(lats, lons, _OFFSET_GATE_KM)
    hit = seg_ids >= 0
    missed = n - int(hit.sum())
    if 2 * missed > n:
        raise OffsetCapError(
            f"{missed} of {n} sample points lie farther than "
            f"{_OFFSET_GATE_KM:.3f} km from every road; check data/network pairing"
        )
    # the closest points, a + t * (b - a) on each hit's sub-segment
    i, t = sub[hit], t[hit]
    dlats = index.a_lat[i] + t * (index.b_lat[i] - index.a_lat[i]) - lats[hit]
    dlons = index.a_lon[i] + t * (index.b_lon[i] - index.a_lon[i]) - lons[hit]
    a_lat = np.abs(dlats)
    a_lon = np.abs(dlons)
    eligible = np.maximum(a_lat, a_lon) > _ZERO_DISPLACEMENT_DEG
    vertical = eligible & (a_lat >= a_lon)
    horizontal = eligible & (a_lon > a_lat)
    min_count = max(20, int(_MIN_GROUP_FRACTION * n))
    step_lat = float(np.median(dlats[vertical])) if vertical.sum() >= min_count else 0.0
    step_lon = float(np.median(dlons[horizontal])) if horizontal.sum() >= min_count else 0.0
    return step_lat, step_lon


def estimate_offset(sample: TraceBatch, net: RoadNetwork,
                    min_sample: int = DEFAULT_MIN_SAMPLE) -> OffsetVector:
    """Estimate the global correction offset from a sample batch.

    Each iteration snaps the (partially corrected) sample to the nearest
    on-road points and accumulates the per-axis median displacement of the
    points informative for that axis; iteration stops once the step is
    negligible. Deterministic for a fixed sample.
    """
    if len(net.segments) == 0:
        raise OffsetEstimationError("network is empty")
    if len(sample) < min_sample:
        raise OffsetEstimationError(
            f"sample of {len(sample)} records is below minimum {min_sample}"
        )
    lats, lons = sample.lat, sample.lon
    total_lat = 0.0
    total_lon = 0.0
    for _ in range(_MAX_ITER):
        step_lat, step_lon = _median_step(lats + total_lat, lons + total_lon, net)
        total_lat += step_lat
        total_lon += step_lon
        if abs(total_lat) > OFFSET_CAP_DEG or abs(total_lon) > OFFSET_CAP_DEG:
            raise OffsetCapError(
                f"offset estimate drifted to ({total_lat:+.5f}, {total_lon:+.5f})°, "
                f"beyond the ±{OFFSET_CAP_DEG}° cap"
            )
        if max(abs(step_lat), abs(step_lon)) < _CONVERGENCE_DEG:
            break
    logger.info("estimated offset (%+.6f, %+.6f)°", total_lat, total_lon)
    return OffsetVector(total_lat, total_lon)


def apply_offset(batch: TraceBatch, off: OffsetVector):
    """Translate a batch by the offset; returns (batch, skipped_count).

    Rows pushed outside geographic range are skipped and counted.
    """
    lat = batch.lat + off.dlat
    lon = batch.lon + off.dlon
    ok = (-90.0 <= lat) & (lat <= 90.0) & (-180.0 <= lon) & (lon <= 180.0)
    shifted = replace(batch, lat=lat, lon=lon)
    return _kept(shifted, ok), len(batch) - int(np.count_nonzero(ok))


def match_batch(batch: TraceBatch, net: RoadNetwork,
                max_dist_km: float = DEFAULT_MAX_DIST_KM):
    """Label each row with its nearest segment within the gate.

    Returns (matched, unmatched_count): ``matched`` holds the rows with a
    segment within ``max_dist_km``, ``road_id`` set. Rows without one are
    counted as unmatched, a normal outcome.
    """
    seg_ids = net.index.nearest_batch(batch.lat, batch.lon, max_dist_km)[0]
    matched = _kept(replace(batch, road_id=seg_ids), seg_ids >= 0)
    if len(batch):
        logger.debug("match rate %.1f%% (%d/%d)",
                     100.0 * len(matched) / len(batch), len(matched), len(batch))
    return matched, len(batch) - len(matched)


def _kept(batch: TraceBatch, ok) -> TraceBatch:
    """The rows of ``batch`` where ``ok`` is true: ``batch`` itself when
    no row is dropped, with no gather of its columns."""
    return batch if ok.all() else batch[ok]
