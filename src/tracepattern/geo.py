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


def lon_km_per_deg(lat):
    """Km per degree of longitude at latitude ``lat`` (degrees): the x scale
    of the local plane that ``min_dist_to_subsegments`` projects into."""
    return KM_PER_DEG * np.cos(np.radians(lat))


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
    shape = np.broadcast_shapes(lat.shape, lon.shape,
                                *map(np.shape, (a_lat, a_lon, b_lat, b_lon)))
    # arrays of the broadcast shape, at least 1-d: min_dist_at_scale works
    # in place on its first temporaries
    lat, lon, a_lat, a_lon, b_lat, b_lon = np.broadcast_arrays(
        *np.atleast_1d(lat, lon, a_lat, a_lon, b_lat, b_lon))
    d, t = min_dist_at_scale(lat, lon, lon_km_per_deg(lat), a_lat, a_lon, b_lat, b_lon)
    return d.reshape(shape)[()], t.reshape(shape)[()]


def min_dist_at_scale(lat, lon, kx, a_lat, a_lon, b_lat, b_lon):
    """``min_dist_to_subsegments`` with the x scale ``kx``, which must be
    ``lon_km_per_deg(lat)``, given: a caller that measures one point
    against many sub-segments computes it once per point. The operations,
    and so the bits, are those of ``min_dist_to_subsegments``; they run in
    place on the first temporaries, which have the broadcast shape.
    """
    ax = a_lon - lon
    ax *= kx
    ay = a_lat - lat
    ay *= KM_PER_DEG
    dx = b_lon - lon  # bx, then bx - ax
    dx *= kx
    dx -= ax
    dy = b_lat - lat
    dy *= KM_PER_DEG
    dy -= ay
    seg2 = dx * dx
    seg2 += dy * dy
    t = ax * dx  # -(ax * dx + ay * dy) / seg2 where seg2 > 0, else 0
    t += ay * dy
    np.negative(t, out=t)
    with np.errstate(invalid="ignore", divide="ignore"):
        t /= seg2
    np.copyto(t, 0.0, where=~(seg2 > 0.0))
    np.clip(t, 0.0, 1.0, out=t)
    dx *= t  # the closest point: a + t * (b - a)
    ax += dx
    dy *= t
    ay += dy
    return np.hypot(ax, ay, out=ax), t
