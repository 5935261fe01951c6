import datetime
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracepattern.congestion import (daily_aggregates, day_matrix, fitting_index,
                                     min_max_normalize, score_matrix)
from tracepattern.errors import ComparisonError
from tracepattern.network import load_network
from tracepattern.patterns import SpatioTemporalMatrix, full_interval_axis

from conftest import (assert_bits_equal, estimate_free_flow, inrix_score,
                      network_inrix, odd_grid, score_by_rows,
                      sparse_anomalous_grid, traced_peak)

DAY = datetime.date(2016, 10, 1)


def line_network(n_roads, free_flow=None, lengths=None):
    """``n_roads`` north-south roads; ``free_flow`` and ``lengths`` (in
    0.01 degree steps of latitude) map a road index to its value."""
    free_flow, lengths = free_flow or {}, lengths or {}
    features = []
    for i in range(n_roads):
        props = {"id": i}
        if i in free_flow:
            props["free_flow_kmh"] = free_flow[i]
        lat1 = 30.0 + 0.01 * lengths.get(i, 1.0)
        features.append({"type": "Feature", "properties": props, "geometry": {
            "type": "LineString", "coordinates": [[100.0 + 0.01 * i, 30.0], [100.0 + 0.01 * i, lat1]]}})
    return load_network({"type": "FeatureCollection", "features": features})


def estimated_free_flow(row, anomaly_kmh=70.0):
    """The free flow ``score_matrix`` estimates for a one-road matrix."""
    axis = full_interval_axis(DAY, DAY)[:len(row)]
    speeds = SpatioTemporalMatrix([0], axis, np.asarray(row, dtype=float)[None, :])
    return score_matrix(speeds, line_network(1), anomaly_kmh).free_flow.get(0)


class TestEstimateFreeFlow:
    """The P85 free flow of roads that supply none, against the per-road
    oracle ``estimate_free_flow``."""

    def test_constant_row(self):
        assert estimated_free_flow(np.full(96, 40.0)) == (40.0, "estimated")
        assert estimate_free_flow(np.full(96, 40.0)) == 40.0

    def test_uniform_row_p85(self):
        row = np.linspace(20, 70, 96)  # sort-and-index oracle: 20 + 0.85 * 50
        assert estimated_free_flow(row)[0] == pytest.approx(62.5, abs=0.5)
        assert estimated_free_flow(row)[0] == estimate_free_flow(row)

    def test_clamped_to_threshold(self):
        assert estimated_free_flow(np.full(96, 200.0), anomaly_kmh=70.0) == (70.0, "estimated")

    def test_clamped_to_floor(self):
        assert estimated_free_flow(np.full(96, 1.0)) == (5.0, "estimated")

    def test_all_zero_undefined(self):
        assert estimated_free_flow(np.zeros(96)) is None
        with pytest.raises(ValueError):
            estimate_free_flow(np.zeros(96))


class TestInrixScore:
    def test_direct_substitution(self):
        assert inrix_score(60, 30) == 1.0

    def test_negative_branch_is_zero(self):
        assert inrix_score(60, 70) == 0.0

    def test_boundary(self):
        assert inrix_score(55, 55) == 0.0

    def test_non_positive_speed(self):
        with pytest.raises(ValueError):
            inrix_score(60, 0)

    @given(th=st.floats(10, 70), re1=st.floats(1, 200), re2=st.floats(1, 200))
    @settings(max_examples=50, deadline=None)
    def test_monotone_non_increasing_in_speed(self, th, re1, re2):
        lo, hi = sorted([re1, re2])
        assert inrix_score(th, lo) >= inrix_score(th, hi)
        if lo >= th:
            assert inrix_score(th, lo) == 0.0


class TestNetworkInrix:
    def test_weighted_mean(self):
        assert network_inrix([1.0, 0.0], [1.0, 3.0]) == 0.25

    def test_constant_scores(self):
        assert network_inrix([0.4, 0.4, 0.4], [1.0, 5.0, 2.0]) == pytest.approx(0.4)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(1)
        scores = rng.uniform(0, 2, 20)
        lengths = rng.uniform(0.1, 3, 20)
        expected = sum(l * s for l, s in zip(lengths, scores)) / sum(lengths)
        assert network_inrix(scores, lengths) == pytest.approx(expected, rel=1e-12)

    def test_scale_invariance(self):
        scores = [0.5, 1.5, 0.0]
        lengths = np.array([1.0, 2.0, 3.0])
        assert network_inrix(scores, lengths) == \
            pytest.approx(network_inrix(scores, lengths * 7.3), rel=1e-12)

    def test_nan_scores_excluded(self):
        assert network_inrix([1.0, np.nan], [1.0, 99.0]) == 1.0

    def test_empty_undefined(self):
        with pytest.raises(ValueError):
            network_inrix([np.nan], [1.0])


class TestFittingIndex:
    def test_identical_days(self):
        base = np.sin(np.linspace(0, 2 * np.pi, 96)) + 2
        result = fitting_index(np.stack([base, base, base]))
        assert result.value == 1.0 and not result.degenerate

    def test_degenerate_all_equal(self):
        result = fitting_index(np.full((3, 96), 5.0))
        assert result.value == 1.0 and result.degenerate

    def test_clustered_days_high(self):
        # holiday-like regime: day curves nearly coincide
        rng = np.random.default_rng(2)
        base = np.sin(np.linspace(0, 2 * np.pi, 96)) * 10 + 20
        days = np.stack([base + rng.normal(0, 0.5, 96) for _ in range(5)])
        assert fitting_index(days).value > 0.9

    def test_hierarchical_days_mid(self):
        # level-shifted day curves: the dispersion regime
        base = np.sin(np.linspace(0, 2 * np.pi, 96)) * 10 + 20
        days = np.stack([base * f for f in (0.72, 0.9, 1.0, 1.12, 1.3)])
        value = fitting_index(days).value
        assert 0.52 <= value <= 0.75

    @given(shift=st.floats(-100, 100), scale=st.floats(0.01, 50))
    @settings(max_examples=40, deadline=None)
    def test_shift_and_scale_invariance(self, shift, scale):
        rng = np.random.default_rng(3)
        days = rng.uniform(1, 10, (4, 96))
        f0 = fitting_index(days).value
        assert fitting_index(days + shift).value == pytest.approx(f0, rel=1e-6)
        assert fitting_index(days * scale).value == pytest.approx(f0, rel=1e-6)

    def test_requires_two_days(self):
        with pytest.raises(ValueError):
            fitting_index(np.ones((1, 96)))


class TestMinMaxNormalize:
    def test_basic(self):
        out, degenerate = min_max_normalize([2, 4, 6])
        np.testing.assert_allclose(out, [0, 0.5, 1])
        assert not degenerate

    def test_constant_day(self):
        out, degenerate = min_max_normalize([3, 3, 3])
        np.testing.assert_array_equal(out, [0, 0, 0])
        assert degenerate

    def test_nan_slot_stays_nan_and_the_rest_normalizes(self):
        out, degenerate = min_max_normalize([1, np.nan, 3, 2])
        np.testing.assert_array_equal(out, [0, np.nan, 1, 0.5])
        assert not degenerate

    @pytest.mark.parametrize("values, want", [
        ([np.nan, np.nan], [np.nan, np.nan]),
        ([2, np.nan, 2], [0, np.nan, 0]),
    ], ids=["all_nan", "constant_with_nan"])
    def test_degenerate_with_nan(self, values, want):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, degenerate = min_max_normalize(values)
        np.testing.assert_array_equal(out, want)
        assert degenerate

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=96, unique=True))
    @settings(max_examples=50, deadline=None)
    def test_range_and_ranking_preserved(self, values):
        out, degenerate = min_max_normalize(values)
        assert np.all(out >= 0) and np.all(out <= 1)
        if not degenerate:
            assert out.min() == 0.0 and out.max() == 1.0
            # slot ranking preserved (weakly: float rounding may merge near-ties)
            order = np.argsort(values, kind="stable")
            assert np.all(np.diff(out[order]) >= 0)

    def test_hierarchy_removal_exact(self):
        base = np.sin(np.linspace(0, 2 * np.pi, 96)) * 10 + 20
        days = np.stack([base * f for f in (0.7, 1.0, 1.4)])
        assert fitting_index(days).value < 1.0
        norm = np.stack([min_max_normalize(d)[0] for d in days])
        assert fitting_index(norm).value == pytest.approx(1.0, abs=1e-9)


def toy_network_and_speeds(n_days=1):
    net = load_network({"type": "FeatureCollection", "features": [
        {"type": "Feature", "properties": {"id": 0, "free_flow_kmh": 60.0},
         "geometry": {"type": "LineString", "coordinates": [[104.0, 30.0], [104.0, 30.01]]}},
        {"type": "Feature", "properties": {"id": 1},
         "geometry": {"type": "LineString", "coordinates": [[104.1, 30.0], [104.1, 30.02]]}},
    ]})
    axis = full_interval_axis(DAY, DAY + datetime.timedelta(days=n_days - 1))
    values = np.vstack([np.full(len(axis), 30.0), np.full(len(axis), 50.0)])
    return net, SpatioTemporalMatrix([0, 1], axis, values)


class TestScoreMatrix:
    def test_supplied_free_flow_precedence(self):
        net, speeds = toy_network_and_speeds()
        series = score_matrix(speeds, net)
        assert series.free_flow[0] == (60.0, "supplied")
        assert series.free_flow[1][1] == "estimated"
        # road 0: 60/30 - 1 = 1; road 1: constant row -> TH = 50 -> score 0
        assert series.per_road.values[0, 0] == pytest.approx(1.0)
        assert series.per_road.values[1, 0] == pytest.approx(0.0)

    def test_network_weighting(self):
        net, speeds = toy_network_and_speeds()
        series = score_matrix(speeds, net)
        l0 = net.segments[0].length_km
        l1 = net.segments[1].length_km
        expected = (l0 * 1.0 + l1 * 0.0) / (l0 + l1)
        assert series.network[0] == pytest.approx(expected, rel=1e-9)
        assert np.nanmin(series.per_road.values[:, 0]) <= series.network[0] \
            <= np.nanmax(series.per_road.values[:, 0])

    def test_cells_and_network_equal_the_scalar_oracles(self):
        net, speeds = toy_network_and_speeds()
        rng = np.random.default_rng(3)
        speeds.values[:] = rng.uniform(5.0, 80.0, speeds.values.shape)
        speeds.values[0, ::7] = 0.0  # no data
        speeds.values[:, 5] = 0.0  # no road with a score
        series = score_matrix(speeds, net)
        lengths = [net.segments[rid].length_km for rid in speeds.road_ids]
        for i, rid in enumerate(speeds.road_ids):
            th = series.free_flow[rid][0]
            for got, re in zip(series.per_road.values[i], speeds.values[i]):
                assert np.isnan(got) if re == 0.0 else got == inrix_score(th, re)
        for j, got in enumerate(series.network):
            if j == 5:
                assert np.isnan(got)
            else:
                assert got == network_inrix(series.per_road.values[:, j], lengths)


def score_rows(rows, net, anomaly_kmh=70.0):
    """``score_matrix`` of a grid of ``rows``, checked against the
    road-by-road, interval-by-interval oracle; returns its series."""
    rows = np.array(rows, dtype=float).reshape(len(rows), -1)
    axis = full_interval_axis(DAY, DAY + datetime.timedelta(days=3))[:rows.shape[1]]
    speeds = SpatioTemporalMatrix(list(range(len(rows))), axis, rows)
    series = score_matrix(speeds, net, anomaly_kmh)
    values, network, free_flow = score_by_rows(speeds, net, anomaly_kmh)
    assert_bits_equal(series.per_road.values, values)
    assert_bits_equal(series.network, network)
    assert list(series.free_flow) == list(free_flow)
    assert_bits_equal([v for v, _ in series.free_flow.values()],
                      [v for v, _ in free_flow.values()])
    assert [s for _, s in series.free_flow.values()] == [s for _, s in free_flow.values()]
    return series


class TestScoreEqualsRowOracle:
    """The whole-grid score against ``score_by_rows``, bit for bit."""

    def test_picked(self):
        net = line_network(3, free_flow={0: 50.0}, lengths={1: 2.0, 2: 0.5})
        series = score_rows([[25, 0, 0, 80], [40, 0, -3, 20], [0, 0, 0, 0]], net)
        assert series.free_flow[0] == (50.0, "supplied") and list(series.free_flow) == [0, 1]
        assert series.free_flow[1][0] == pytest.approx(31.0)  # P85 of -3, 0, 20, 40
        assert np.isnan(series.network[1])  # no road scores there
        assert np.isnan(series.per_road.values[2]).all()  # no data, no free flow

    @pytest.mark.parametrize("n_cols", [0, 1])
    def test_few_intervals(self, n_cols):
        net = line_network(2, free_flow={0: 50.0})
        series = score_rows(np.full((2, n_cols), 30.0), net)
        assert series.network.shape == (n_cols,)

    def test_no_road_scores(self):
        series = score_rows(np.zeros((2, 5)), line_network(2))
        assert series.free_flow == {} and np.isnan(series.network).all()

    @pytest.mark.parametrize("seed", range(12))
    def test_random(self, seed):
        rng = np.random.default_rng(seed)
        n_roads = int(rng.integers(1, 300))  # past 128 roads, where np.sum goes pairwise
        rows = odd_grid(rng, n_roads, int(rng.integers(1, 200)))  # several blocks
        rows[:, rng.random(rows.shape[1]) < 0.1] = 0.0  # intervals no road scores
        net = line_network(n_roads,
                           free_flow={i: float(rng.uniform(20, 90))
                                      for i in range(n_roads) if rng.random() < 0.5},
                           lengths={i: float(rng.uniform(0.1, 3.0)) for i in range(n_roads)})
        score_rows(rows, net)

    def test_road_missing_from_the_network(self):
        speeds = SpatioTemporalMatrix([0, 7], full_interval_axis(DAY, DAY),
                                      np.full((2, 96), 30.0))
        with pytest.raises(ComparisonError, match="road 7 of the matrix is not in the network"):
            score_matrix(speeds, line_network(2))


class TestScoreMemory:
    def test_traced_peak(self):
        """The result plus one block of intervals and one boolean grid."""
        v = sparse_anomalous_grid()
        axis = full_interval_axis(DAY, DAY + datetime.timedelta(days=13))
        speeds = SpatioTemporalMatrix(list(range(len(v))), axis, v)
        net = line_network(len(v), free_flow={i: 55.0 for i in range(0, len(v), 2)})
        assert traced_peak(score_matrix, speeds, net) <= 1.25 * v.nbytes


class TestDailyAggregates:
    def test_flow_total(self):
        net, speeds = toy_network_and_speeds()
        axis = speeds.intervals
        flow = SpatioTemporalMatrix([0, 1], list(axis),
                                    np.ones((2, len(axis)), dtype=np.int64))
        series = score_matrix(speeds, net)
        aggs = daily_aggregates(flow, series)
        assert len(aggs) == 1
        assert aggs[0].cf_total == 2 * 96
        assert not aggs[0].partial

    def test_constant_congestion_mean(self):
        net, speeds = toy_network_and_speeds()
        series = score_matrix(speeds, net)
        flow = SpatioTemporalMatrix([0, 1], list(speeds.intervals),
                                    np.zeros((2, 96), dtype=np.int64))
        aggs = daily_aggregates(flow, series)
        assert aggs[0].dc_mean == pytest.approx(series.network[0], rel=1e-12)

    def test_matches_brute_force(self):
        net, speeds = toy_network_and_speeds(n_days=3)
        rng = np.random.default_rng(4)
        speeds.values[:] = rng.uniform(20, 60, speeds.values.shape)
        flow = SpatioTemporalMatrix([0, 1], list(speeds.intervals),
                                    rng.integers(0, 9, speeds.values.shape))
        series = score_matrix(speeds, net)
        aggs = daily_aggregates(flow, series)
        for d, agg in enumerate(aggs):
            cols = slice(d * 96, (d + 1) * 96)
            assert agg.cf_total == int(flow.values[:, cols].sum())
            assert agg.dc_mean == pytest.approx(float(np.mean(series.network[cols])),
                                                rel=1e-12)

    @pytest.mark.parametrize("dtype, n_cols", [(np.int64, 3 * 96), (np.float64, 3 * 96),
                                               (np.int64, 96 + 37)],
                             ids=["int64", "integer-float64", "partial-day"])
    def test_flow_totals_equal_the_per_day_gather(self, dtype, n_cols):
        net, speeds = toy_network_and_speeds(n_days=3)
        axis = speeds.intervals[:n_cols]
        speeds = SpatioTemporalMatrix([0, 1], axis, speeds.values[:, :n_cols])
        rng = np.random.default_rng(9)
        values = rng.integers(0, 2**40, (2, n_cols)).astype(dtype)
        flow = SpatioTemporalMatrix([0, 1], axis, values)
        aggs = daily_aggregates(flow, score_matrix(speeds, net))
        assert [a.day for a in aggs] == flow.days()
        for agg in aggs:
            cols = [j for j, iv in enumerate(axis) if iv.day == agg.day]
            assert agg.cf_total == int(flow.values[:, cols].sum())
            assert agg.partial == (len(cols) < 96)

    def test_day_matrices_shapes(self):
        net, speeds = toy_network_and_speeds(n_days=2)
        series = score_matrix(speeds, net)
        days, dc = day_matrix(series.per_road, series.network)
        assert len(days) == 2 and dc.shape == (2, 96)
        flow = SpatioTemporalMatrix([0, 1], list(speeds.intervals),
                                    np.ones((2, 192), dtype=np.int64))
        _, cf = day_matrix(flow, flow.values.sum(axis=0))
        assert cf.shape == (2, 96) and np.all(cf == 2)
