"""Congestion scoring and temporal-dispersion analytics.

Per-road congestion is scored as max(free_flow / speed - 1, 0); the
network score is the road-length-weighted mean. Daily profiles are
compared across days with a fitting index and min-max normalization.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ComparisonError
from .ingest import SLOTS_PER_DAY
from .patterns import DEFAULT_ANOMALY_KMH, SpatioTemporalMatrix, missing

logger = logging.getLogger(__name__)

FREE_FLOW_PERCENTILE = 85.0
FREE_FLOW_MIN_KMH = 5.0
_BLOCK = 64  # intervals whose network scores are summed at once


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


def score_matrix(speeds: SpatioTemporalMatrix, network,
                 anomaly_kmh: float = DEFAULT_ANOMALY_KMH) -> CongestionSeries:
    """Congestion series from a cleaned speed matrix, on the whole grid.

    ``network`` supplies lengths and, where present, free-flow speeds; a
    road without one gets the P85 of its series, clamped to [5,
    ``anomaly_kmh``], or is excluded if it has no data. Cells whose speed
    is not positive, and all cells of an excluded road, score NaN. Holds
    the result plus one boolean grid or one block of ``_BLOCK`` intervals.
    """
    v = speeds.values
    roads = [network.segments.get(rid) for rid in speeds.road_ids]
    if None in roads:
        rid = speeds.road_ids[roads.index(None)]
        raise ComparisonError(f"road {rid} of the matrix is not in the network")
    th = np.array([np.nan if r.free_flow_kmh is None else min(r.free_flow_kmh, anomaly_kmh)
                   for r in roads], dtype=np.float64)
    estimated = np.isnan(th) & ~missing(v).all(axis=1)
    scored = estimated | ~np.isnan(th)
    if not scored.all():
        logger.warning("%d roads have no data, excluded from scoring", np.count_nonzero(~scored))
    with np.errstate(divide="ignore", invalid="ignore"):
        if estimated.any():  # sorts a copy of those rows, freed before the result exists
            p85 = np.percentile(v[estimated], FREE_FLOW_PERCENTILE, axis=1, overwrite_input=True)
            th[estimated] = np.clip(p85, FREE_FLOW_MIN_KMH, anomaly_kmh)
        scores = np.full(v.shape, np.nan)
        np.divide(th[:, None], v, out=scores, where=v > 0.0)
        scores -= 1.0
        np.maximum(scores, 0.0, out=scores)

        # per interval, sum(length * score) / sum(length) over the roads that
        # score there; a block's products as C-order rows, so that each sum
        # is pairwise like a 1-D np.sum
        network_series = np.empty(v.shape[1])
        keep = ~np.isnan(scores).all(axis=1)
        lengths = np.array([r.length_km for r in roads])[keep]
        for j0 in range(0, v.shape[1], _BLOCK):
            block = scores[keep, j0:j0 + _BLOCK].T
            products = np.multiply(block, lengths, order="C")
            network_series[j0:j0 + len(block)] = products.sum(axis=1) / np.sum(lengths)
            for j in np.flatnonzero(np.isnan(products).any(axis=1)):
                ok = ~np.isnan(block[j])
                network_series[j0 + j] = np.sum(products[j][ok]) / np.sum(lengths[ok])
    free_flow = {rid: (float(t), "estimated" if e else "supplied")
                 for rid, t, e, s in zip(speeds.road_ids, th, estimated, scored) if s}
    per_road = SpatioTemporalMatrix(list(speeds.road_ids), list(speeds.intervals), scores)
    return CongestionSeries(per_road, network_series, free_flow)


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
    totals = flow.values.sum(axis=0)  # per interval; integer counts sum exactly in any order
    for day in flow.days():
        cols = [j for j, iv in enumerate(intervals) if iv.day == day]
        cf = int(totals[cols].sum())
        net = congestion.network[cols]
        defined = ~np.isnan(net)
        partial = len(cols) < SLOTS_PER_DAY or not np.all(defined)
        dc = float(net[defined].mean()) if np.any(defined) else float("nan")
        out.append(DailyAggregate(day, cf, dc, partial))
    return out


def day_matrix(matrix: SpatioTemporalMatrix, per_interval):
    """(days, (days, 96) float64 array) of ``per_interval``, one value per
    interval of ``matrix``'s axis, such as the network score series or the
    network-total flow; requires whole days."""
    days = matrix.days()
    if len(matrix.intervals) != len(days) * SLOTS_PER_DAY:
        raise ValueError("interval axis does not cover whole days")
    return days, np.asarray(per_interval, dtype=np.float64).reshape(len(days), SLOTS_PER_DAY)
