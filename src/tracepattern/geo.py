"""Great-circle and point-to-polyline distance primitives.

All distances are in kilometers on a sphere of radius 6378.137 km.
"""

import numpy as np

EARTH_RADIUS_KM = 6378.137
KM_PER_DEG = np.pi / 180.0 * EARTH_RADIUS_KM  # meridian km per degree


def haversine(lat1, lon1, lat2, lon2):
    """Spherical distance between two points, in km.

    Accepts scalars or numpy arrays (broadcasting applies).
    """
    p1 = np.radians(np.asarray(lat1, dtype=np.float64))
    p2 = np.radians(np.asarray(lat2, dtype=np.float64))
    dphi = (p2 - p1) / 2.0
    dlam = np.radians(np.asarray(lon2, dtype=np.float64) - np.asarray(lon1, dtype=np.float64)) / 2.0
    a = np.sin(dphi) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(dlam) ** 2
    d = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))
    if np.ndim(d) == 0:
        return float(d)
    return d


def min_dist_to_subsegments(lat, lon, a_lat, a_lon, b_lat, b_lon):
    """Distances (km) from query points to straight sub-segments.

    Points are projected into a local equirectangular plane centered at each
    query point; the chordal minimum is measured with the Haversine degree
    scale. Shapes broadcast as (n_points, 1) x (n_subsegs,); pass 1-d arrays
    of equal or broadcastable shape.

    Returns (dist_km, t) where t in [0, 1] is the clamped projection
    parameter along each sub-segment.
    """
    lat = np.asarray(lat, dtype=np.float64)
    lon = np.asarray(lon, dtype=np.float64)
    kx = KM_PER_DEG * np.cos(np.radians(lat))
    ky = KM_PER_DEG

    ax = (a_lon - lon) * kx
    ay = (a_lat - lat) * ky
    bx = (b_lon - lon) * kx
    by = (b_lat - lat) * ky

    dx = bx - ax
    dy = by - ay
    seg2 = dx * dx + dy * dy
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.where(seg2 > 0.0, -(ax * dx + ay * dy) / seg2, 0.0)
    t = np.clip(t, 0.0, 1.0)
    cx = ax + t * dx
    cy = ay + t * dy
    return np.hypot(cx, cy), t
