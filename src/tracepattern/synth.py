"""Deterministic synthetic scenarios with known ground truth.

Generates a rectangular grid network and one-way kinematic trips along
its segments, emitting pings at a fixed period. Ground-truth flow and
speed matrices are accumulated from the noiseless pings with independent
bookkeeping, so pipeline output can be checked cell by cell.
"""

from __future__ import annotations

import datetime
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import geo
from .errors import ComparisonError, ConfigError
from .ingest import COLUMNS, SECONDS_PER_DAY, SLOTS_PER_DAY, DEFAULT_TZ_OFFSET_S
from .patterns import SpatioTemporalMatrix, full_interval_axis

_TRIM = 0.05  # trips run over the interior of a segment, clear of intersections
_EPOCH = datetime.date(1970, 1, 1)


def uniform_profile(per_slot: int):
    return tuple([per_slot] * SLOTS_PER_DAY)


def bimodal_profile(peak: int, base: int = 1):
    """Morning and evening commute peaks (slots 32-37 and 70-75)."""
    return multi_peak_profile(peak, base, ((32, 38), (70, 76)))


def multi_peak_profile(peak: int, base: int = 1, peak_slots=((32, 38), (56, 60), (70, 76), (84, 88))):
    """Several demand peaks across the day (commutes plus afternoon/night)."""
    prof = [base] * SLOTS_PER_DAY
    for lo, hi in peak_slots:
        for s in range(lo, hi):
            prof[s] = peak
    return tuple(prof)


@dataclass(frozen=True)
class Scenario:
    """Full specification of one synthetic run."""

    seed: int = 0
    grid_rows: int = 9  # nodes per column
    grid_cols: int = 9  # nodes per row
    segment_length_km: float = 0.5
    demand_profile: tuple = field(default_factory=lambda: uniform_profile(2))
    vehicle_speed_kmh: float = 36.0
    per_road_speed_kmh: dict = field(default_factory=dict)
    ping_period_s: int = 3
    noise_std_deg: float = 0.0
    injected_offset: tuple = (0.0, 0.0)  # (dlat, dlon) added to emitted pings
    n_days: int = 1
    start_date: datetime.date = datetime.date(2016, 10, 1)
    base_lat: float = 30.65
    base_lon: float = 104.06
    tz_offset_s: int = DEFAULT_TZ_OFFSET_S

    def validate(self):
        # fields from a YAML scenario arrive with whatever type it spelled
        for kind, word, names in (
                (int, "an integer", ("seed", "grid_rows", "grid_cols", "ping_period_s",
                                     "n_days", "tz_offset_s")),
                (numbers.Real, "a finite number", ("segment_length_km", "vehicle_speed_kmh",
                                                   "noise_std_deg", "base_lat", "base_lon"))):
            for name in names:
                value = getattr(self, name)
                if not _is_a(kind, value):
                    raise ConfigError(f"{name} must be {word}, not {value!r}")
        offset = self.injected_offset
        if not (isinstance(offset, (tuple, list)) and len(offset) == 2
                and all(_is_a(numbers.Real, v) for v in offset)):
            raise ConfigError(f"injected_offset must be two finite numbers, not {offset!r}")
        if not isinstance(self.per_road_speed_kmh, dict):
            raise ConfigError("per_road_speed_kmh must map road ids to speeds, "
                              f"not {self.per_road_speed_kmh!r}")
        for road, v in self.per_road_speed_kmh.items():
            if not (_is_a(int, road) and _is_a(numbers.Real, v)):
                raise ConfigError("per_road_speed_kmh must map integer road ids to finite "
                                  f"numbers, not {road!r}: {v!r}")
        for count in self.demand_profile:
            if not (_is_a(int, count) and count >= 0):
                raise ConfigError("demand_profile must hold non-negative integers, "
                                  f"not {count!r}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.grid_rows < 2 or self.grid_cols < 2:
            raise ConfigError("grid needs at least 2x2 nodes")
        if self.segment_length_km <= 0:
            raise ConfigError("segment_length_km must be positive")
        if self.vehicle_speed_kmh <= 0 or any(v <= 0 for v in self.per_road_speed_kmh.values()):
            raise ConfigError("vehicle speeds must be positive")
        if self.ping_period_s < 1:
            raise ConfigError("ping_period_s must be >= 1")
        if len(self.demand_profile) != SLOTS_PER_DAY:
            raise ConfigError(f"demand_profile needs {SLOTS_PER_DAY} slots")
        if sum(self.demand_profile) <= 0:
            raise ConfigError("demand_profile generates no orders")
        if self.n_days < 1:
            raise ConfigError("n_days must be >= 1")
        if self.noise_std_deg < 0:
            raise ConfigError("noise_std_deg must be >= 0")
        if abs(self.tz_offset_s) >= SECONDS_PER_DAY:
            raise ConfigError("tz_offset_s must be less than one day in magnitude")
        segments = _segments(grid_network_doc(self))
        if not all(-90 <= lat <= 90 and -180 <= lon <= 180
                   for seg in segments for lat, lon in (seg[0:2], seg[2:4])):
            raise ConfigError("the grid reaches past lon [-180, 180] or lat [-90, 90]; "
                              "move base_lat and base_lon or shrink the grid")
        longest = max(_trip_seconds(self, road, seg[4]) for road, seg in enumerate(segments))
        if int(longest) + 2 > SECONDS_PER_DAY:
            raise ConfigError(f"a trip takes {longest:.0f} s, too long to end on the day "
                              "it starts")


def _is_a(kind, value):
    """Whether ``value`` is a ``kind`` but not a bool, and finite (NaN is not)."""
    return isinstance(value, kind) and not isinstance(value, bool) and abs(value) < math.inf


@dataclass
class GroundTruth:
    flow: SpatioTemporalMatrix
    speed: SpatioTemporalMatrix
    n_orders: int
    n_pings: int


@dataclass
class GeneratedScenario:
    network_doc: dict
    trace_csv: str  # full file contents, header included
    truth: GroundTruth


def grid_network_doc(scenario: Scenario) -> dict:
    """GeoJSON grid of one-segment roads between adjacent nodes."""
    dlat = scenario.segment_length_km / geo.KM_PER_DEG
    dlon = scenario.segment_length_km / (geo.KM_PER_DEG * math.cos(math.radians(scenario.base_lat)))

    def node(i, j):
        return scenario.base_lat + i * dlat, scenario.base_lon + j * dlon

    features = []
    seg_id = 0
    for i in range(scenario.grid_rows):
        for j in range(scenario.grid_cols):
            for di, dj in ((0, 1), (1, 0)):
                i2, j2 = i + di, j + dj
                if i2 >= scenario.grid_rows or j2 >= scenario.grid_cols:
                    continue
                a = node(i, j)
                b = node(i2, j2)
                features.append({
                    "type": "Feature",
                    "properties": {"id": seg_id},
                    "geometry": {"type": "LineString",
                                 "coordinates": [[a[1], a[0]], [b[1], b[0]]]},
                })
                seg_id += 1
    return {"type": "FeatureCollection", "features": features}


def _segments(doc):
    """(alat, alon, blat, blon, length in km) of each road of a grid network document."""
    ends = (feat["geometry"]["coordinates"] for feat in doc["features"])
    return [(alat, alon, blat, blon, geo.haversine(alat, alon, blat, blon))
            for (alon, alat), (blon, blat) in ends]


def _trip_seconds(scenario: Scenario, road: int, length: float) -> float:
    """How long a trip over the interior of a road ``length`` km long takes."""
    v = scenario.per_road_speed_kmh.get(road, scenario.vehicle_speed_kmh)
    return length * (1.0 - 2.0 * _TRIM) / v * 3600.0


def generate(scenario: Scenario) -> GeneratedScenario:
    """Run one scenario: network document, trace CSV, and ground truth."""
    scenario.validate()
    rng = np.random.default_rng(scenario.seed)
    doc = grid_network_doc(scenario)
    segs = _segments(doc)
    n_segs = len(segs)

    day0_ord = scenario.start_date.toordinal() - _EPOCH.toordinal()
    n_cols = scenario.n_days * SLOTS_PER_DAY
    n_rows = n_segs
    flow = np.zeros((n_rows, n_cols), dtype=np.int64)
    v_sum = np.zeros(n_rows * n_cols)
    v_cnt = np.zeros(n_rows * n_cols, dtype=np.int64)

    lines = [",".join(COLUMNS)]
    order_no = 0
    n_pings = 0
    period = scenario.ping_period_s
    off_lat, off_lon = scenario.injected_offset

    for day in range(scenario.n_days):
        day_local_start = (day0_ord + day) * 86400
        for slot in range(SLOTS_PER_DAY):
            for _ in range(scenario.demand_profile[slot]):
                road = int(rng.integers(n_segs))
                direction = int(rng.integers(2))
                alat, alon, blat, blon, length = segs[road]
                if direction:
                    alat, alon, blat, blon = blat, blon, alat, alon
                v = scenario.per_road_speed_kmh.get(road, scenario.vehicle_speed_kmh)
                duration = _trip_seconds(scenario, road, length)
                # keep the whole trip inside the scenario's last day
                latest = day_local_start + 86400 - int(duration) - 2
                t0_local = min(day_local_start + slot * 900 + int(rng.integers(900)), latest)

                k = np.arange(int(duration // period) + 1)
                ts_local = t0_local + k * period
                f = _TRIM + (v * (k * period) / 3600.0) / length
                lat = alat + f * (blat - alat)
                lon = alon + f * (blon - alon)

                # ground truth from the noiseless positions
                cols = ts_local // 900 - day0_ord * SLOTS_PER_DAY
                flow[road, np.unique(cols)] += 1
                if period <= 10 and k.size > 1:
                    d = geo.haversine(lat[:-1], lon[:-1], lat[1:], lon[1:])
                    cells = road * n_cols + cols[:-1]
                    np.add.at(v_sum, cells, np.asarray(d) / (period / 3600.0))
                    np.add.at(v_cnt, cells, 1)

                out_lat = lat + off_lat
                out_lon = lon + off_lon
                if scenario.noise_std_deg > 0:
                    out_lat = out_lat + rng.normal(0.0, scenario.noise_std_deg, lat.size)
                    out_lon = out_lon + rng.normal(0.0, scenario.noise_std_deg, lon.size)
                ts_utc = ts_local - scenario.tz_offset_s
                oid = f"o{order_no:06d}"
                did = f"d{order_no:06d}"
                for t, la, lo in zip(ts_utc, out_lat, out_lon):
                    lines.append(f"{did},{oid},{t},{lo:.10f},{la:.10f}")  # COLUMNS order
                n_pings += k.size
                order_no += 1

    speed = np.where(v_cnt > 0, v_sum / np.maximum(v_cnt, 1), 0.0).reshape(n_rows, n_cols)
    axis = full_interval_axis(scenario.start_date,
                              scenario.start_date + datetime.timedelta(days=scenario.n_days - 1))
    road_ids = list(range(n_segs))
    truth = GroundTruth(
        SpatioTemporalMatrix(road_ids, axis, flow),
        SpatioTemporalMatrix(list(road_ids), list(axis), speed),
        order_no, n_pings,
    )
    return GeneratedScenario(doc, "\n".join(lines) + "\n", truth)


def write_scenario(gen: GeneratedScenario, out_dir):
    """Write network.geojson and traces.csv; returns their paths."""
    import json
    import os

    os.makedirs(out_dir, exist_ok=True)
    net_path = os.path.join(out_dir, "network.geojson")
    trace_path = os.path.join(out_dir, "traces.csv")
    with open(net_path, "w", encoding="utf-8") as fh:
        json.dump(gen.network_doc, fh, sort_keys=True)
    with open(trace_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(gen.trace_csv)
    return net_path, trace_path


@dataclass
class ErrorReport:
    max_abs: float
    mean_abs: float
    max_rel: float  # over cells with non-zero truth
    exact: bool


def compare(estimated: SpatioTemporalMatrix, truth: SpatioTemporalMatrix) -> ErrorReport:
    """Per-cell error report between an estimate and its ground truth."""
    if not estimated.same_axes(truth):
        raise ComparisonError("matrix axes differ")
    e = np.asarray(estimated.values, dtype=np.float64)
    t = np.asarray(truth.values, dtype=np.float64)
    diff = np.abs(e - t)
    nz = t != 0.0
    max_rel = float(np.max(diff[nz] / np.abs(t[nz]))) if np.any(nz) else 0.0
    if np.any(diff[~nz] > 0):
        max_rel = float("inf")
    return ErrorReport(float(diff.max(initial=0.0)), float(diff.mean()) if diff.size else 0.0,
                       max_rel, bool(np.array_equal(estimated.values, truth.values)))


def inject_anomalies(speeds: SpatioTemporalMatrix, rate: float, seed: int,
                     low_kmh: float = 90.0, high_kmh: float = 150.0):
    """Overwrite a random fraction of cells with over-threshold speeds.

    Returns (matrix, injected_count, flat_indices). Injection targets only
    cells that are currently non-zero, so the count is exactly what a
    70 km/h repair pass should detect.
    """
    values = speeds.values.astype(np.float64).copy()
    rng = np.random.default_rng(seed)
    eligible = np.nonzero(values.ravel() > 0.0)[0]
    n = int(round(rate * values.size))
    n = min(n, eligible.size)
    idx = rng.choice(eligible, size=n, replace=False)
    values.ravel()[idx] = rng.uniform(low_kmh, high_kmh, size=n)
    return (SpatioTemporalMatrix(list(speeds.road_ids), list(speeds.intervals), values),
            n, idx)
