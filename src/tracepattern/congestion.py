"""Congestion scoring and temporal-dispersion analytics.

Per-road congestion is scored as max(free_flow / speed - 1, 0); the
network score is the road-length-weighted mean. Daily profiles are
compared across days with a fitting index and min-max normalization.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import UndefinedScoreError
from .ingest import SLOTS_PER_DAY
from .patterns import DEFAULT_ANOMALY_KMH, SpatioTemporalMatrix

logger = logging.getLogger(__name__)

FREE_FLOW_PERCENTILE = 85.0
FREE_FLOW_MIN_KMH = 5.0


@dataclass
class CongestionSeries:
    """Per-road and network-wide congestion scores."""

    per_road: SpatioTemporalMatrix  # same layout as the speed matrix
    network: np.ndarray  # per-interval length-weighted score; NaN = undefined
    free_flow: dict  # road_id -> (value_kmh, "supplied" | "estimated")


@dataclass
class FittingResult:
    value: float
    degenerate: bool = False


def estimate_free_flow(speed_row, anomaly_kmh: float = DEFAULT_ANOMALY_KMH) -> float:
    """Free-flow speed estimate for one road: P85 of its cleaned series,
    clamped to [5, anomaly threshold]. Used only when the network supplies
    no free-flow value.
    """
    row = np.asarray(speed_row, dtype=np.float64)
    if not np.any(row != 0.0):
        raise UndefinedScoreError("cannot estimate free flow from an all-zero series")
    p85 = float(np.percentile(row, FREE_FLOW_PERCENTILE))
    return float(np.clip(p85, FREE_FLOW_MIN_KMH, anomaly_kmh))


def score_matrix(speeds: SpatioTemporalMatrix, network,
                 anomaly_kmh: float = DEFAULT_ANOMALY_KMH) -> CongestionSeries:
    """Congestion series from a cleaned speed matrix.

    ``network`` is the RoadNetwork supplying lengths and, where present,
    free-flow speeds; roads without one get the P85 estimate. Roads whose
    series is all-zero are excluded (their cells become NaN) and skipped
    in the network weighting.
    """
    free_flow = {}
    values = np.full_like(speeds.values, np.nan, dtype=np.float64)
    lengths = np.array([network.segments[rid].length_km for rid in speeds.road_ids])
    for i, rid in enumerate(speeds.road_ids):
        row = speeds.values[i]
        supplied = network.segments[rid].free_flow_kmh
        if supplied is not None:
            th = float(min(supplied, anomaly_kmh))
            free_flow[rid] = (th, "supplied")
        else:
            if not np.any(row != 0.0):
                logger.warning("road %s has no data, excluded from scoring", rid)
                continue
            th = estimate_free_flow(row, anomaly_kmh)
            free_flow[rid] = (th, "estimated")
        with np.errstate(divide="ignore", invalid="ignore"):
            values[i] = np.where(row > 0.0, np.maximum(th / row - 1.0, 0.0), np.nan)

    net_series = np.empty(len(speeds.intervals))
    for j in range(len(speeds.intervals)):
        col = values[:, j]
        ok = ~np.isnan(col)
        if np.any(ok):
            net_series[j] = np.sum(lengths[ok] * col[ok]) / np.sum(lengths[ok])
        else:
            net_series[j] = np.nan
    per_road = SpatioTemporalMatrix(list(speeds.road_ids), list(speeds.intervals), values)
    return CongestionSeries(per_road, net_series, free_flow)


def fitting_index(day_series) -> FittingResult:
    """Dispersion of same-scenario daily series around their cross-day
    slot means: 1 - SS_residual / SS_total.

    ``day_series`` is a (days, slots) array with at least 2 rows. Equals 1
    exactly when every day matches the slot means; an all-equal input has
    zero denominator and is defined as 1 with the degenerate flag set.
    """
    y = np.asarray(day_series, dtype=np.float64)
    if y.ndim != 2 or y.shape[0] < 2:
        raise ValueError("need a (days >= 2, slots) array")
    slot_mean = y.mean(axis=0)
    grand_mean = y.mean()
    ss_res = float(np.sum((y - slot_mean) ** 2))
    ss_tot = float(np.sum((y - grand_mean) ** 2))
    if ss_tot == 0.0:
        return FittingResult(1.0, degenerate=True)
    return FittingResult(1.0 - ss_res / ss_tot)


def min_max_normalize(day_values):
    """Per-day min-max scaling into [0, 1] over the slots that are not NaN.

    Returns (normalized, degenerate); NaN slots stay NaN. A constant day
    normalizes to zeros and an all-NaN day stays NaN, both with the flag
    set.
    """
    x = np.asarray(day_values, dtype=np.float64)
    if x.size == 0:
        raise ValueError("empty series")
    if np.isnan(x).all():
        return x.copy(), True
    lo, hi = float(np.nanmin(x)), float(np.nanmax(x))
    if hi == lo:
        return np.where(np.isnan(x), np.nan, 0.0), True
    return (x - lo) / (hi - lo), False


@dataclass
class DailyAggregate:
    day: object
    cf_total: int  # total car-hailing flow
    dc_mean: float  # mean network congestion score
    partial: bool = False


def daily_aggregates(flow: SpatioTemporalMatrix, congestion: CongestionSeries):
    """Per-day totals of flow and means of the network congestion score.

    Days whose network score is undefined for some interval are flagged
    partial (the mean then covers the defined intervals only).
    """
    if not congestion.per_road.intervals == flow.intervals:
        raise ValueError("flow and congestion interval axes differ")
    out = []
    intervals = flow.intervals
    for day in flow.days():
        cols = [j for j, iv in enumerate(intervals) if iv.day == day]
        cf = int(flow.values[:, cols].sum())
        net = congestion.network[cols]
        defined = ~np.isnan(net)
        partial = len(cols) < SLOTS_PER_DAY or not np.all(defined)
        dc = float(net[defined].mean()) if np.any(defined) else float("nan")
        out.append(DailyAggregate(day, cf, dc, partial))
    return out


def network_day_matrix(congestion: CongestionSeries):
    """(days, 96) view of the network score series; requires whole days."""
    intervals = congestion.per_road.intervals
    days = congestion.per_road.days()
    if len(intervals) != len(days) * SLOTS_PER_DAY:
        raise ValueError("interval axis does not cover whole days")
    return days, congestion.network.reshape(len(days), SLOTS_PER_DAY)


def flow_day_matrix(flow: SpatioTemporalMatrix):
    """(days, 96) per-interval network-total flow; requires whole days."""
    days = flow.days()
    totals = flow.values.sum(axis=0)
    if totals.size != len(days) * SLOTS_PER_DAY:
        raise ValueError("interval axis does not cover whole days")
    return days, totals.reshape(len(days), SLOTS_PER_DAY).astype(np.float64)
