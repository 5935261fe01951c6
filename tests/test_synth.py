import dataclasses
import datetime

import numpy as np
import pytest

from tracepattern import geo
from tracepattern.errors import ComparisonError, ConfigError
from tracepattern.network import load_network
from tracepattern.patterns import SpatioTemporalMatrix, full_interval_axis
from tracepattern.synth import (Scenario, bimodal_profile, compare, generate,
                                grid_network_doc, inject_anomalies,
                                multi_peak_profile, uniform_profile)

from conftest import parse_all

DAY = datetime.date(2016, 10, 1)


class TestProfiles:
    def test_uniform_sums(self):
        prof = uniform_profile(3)
        assert len(prof) == 96 and sum(prof) == 288

    def test_bimodal_peaks(self):
        prof = bimodal_profile(peak=8, base=1)
        assert prof[33] == 8 and prof[72] == 8 and prof[50] == 1
        assert sum(1 for p in prof if p == 8) == 12

    def test_multi_peak_count(self):
        prof = multi_peak_profile(peak=5, base=2)
        assert sum(1 for p in prof if p == 5) == 6 + 4 + 6 + 4
        assert all(p in (2, 5) for p in prof)


class TestScenarioValidate:
    def test_defaults_valid(self):
        Scenario().validate()

    @pytest.mark.parametrize("kwargs", [
        {"grid_rows": 1},
        {"segment_length_km": 0.0},
        {"vehicle_speed_kmh": -5.0},
        {"per_road_speed_kmh": {0: 0.0}},
        {"ping_period_s": 0},
        {"demand_profile": (1, 2, 3)},
        {"demand_profile": tuple([0] * 96)},
        {"n_days": 0},
        {"grid_rows": "9"},
        {"seed": True},
        {"seed": -1},
        {"n_days": 1.0},
        {"ping_period_s": 3.0},
        {"tz_offset_s": None},
        {"segment_length_km": float("nan")},
        {"vehicle_speed_kmh": "36"},
        {"injected_offset": (0.001,)},
        {"injected_offset": (0.0, float("inf"))},
        {"injected_offset": 0.001},
        {"demand_profile": (1.5,) * 96},
        {"demand_profile": (-1,) + (2,) * 95},
        {"demand_profile": ("2",) * 96},
        {"per_road_speed_kmh": [1]},
        {"per_road_speed_kmh": {"0": 20.0}},
        {"per_road_speed_kmh": {0: float("nan")}},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            Scenario(**kwargs).validate()

    def test_trip_must_end_on_the_day_it_starts(self):
        # 27 km at 1 km/h takes 97,200 s: its pings would start the day before
        slow = Scenario(segment_length_km=30.0, vehicle_speed_kmh=1.0)
        with pytest.raises(ConfigError, match="a trip takes 97200 s"):
            slow.validate()
        with pytest.raises(ConfigError, match="a trip takes"):
            Scenario(per_road_speed_kmh={3: 0.01}).validate()
        # 0.45 km at 36 km/h: 45 s
        Scenario(segment_length_km=0.5, vehicle_speed_kmh=36.0).validate()

    def test_longest_trip_that_fits_a_day(self):
        """generate starts a trip of d seconds at most 86400 - int(d) - 2 s
        into its day, so a trip fits while int(d) + 2 <= 86400."""
        base = Scenario(grid_rows=2, grid_cols=2, ping_period_s=60,
                        demand_profile=(0,) * 95 + (1,))
        longest = max(geo.haversine(a[1], a[0], b[1], b[0]) for a, b in
                      (f["geometry"]["coordinates"] for f in grid_network_doc(base)["features"]))
        km = longest * (1.0 - 2.0 * 0.05)  # the trip skips 5% of the road at each end
        with pytest.raises(ConfigError, match="a trip takes"):
            dataclasses.replace(base, vehicle_speed_kmh=km / 86399.5 * 3600.0).validate()
        fits = dataclasses.replace(base, vehicle_speed_kmh=km / 86398.5 * 3600.0)
        day_start = (fits.start_date - datetime.date(1970, 1, 1)).days * 86400 - fits.tz_offset_s
        ts = [int(line.split(",")[2]) for line in generate(fits).trace_csv.splitlines()[1:]]
        assert day_start <= min(ts) and max(ts) < day_start + 86400


class TestGridNetwork:
    def test_segment_count(self):
        # r x c nodes -> r*(c-1) horizontal + (r-1)*c vertical edges
        doc = grid_network_doc(Scenario(grid_rows=4, grid_cols=5))
        assert len(doc["features"]) == 4 * 4 + 3 * 5

    def test_segment_lengths_near_nominal(self):
        doc = grid_network_doc(Scenario(grid_rows=3, grid_cols=3,
                                        segment_length_km=0.5))
        net = load_network(doc)
        for seg in net.segments.values():
            assert seg.length_km == pytest.approx(0.5, rel=1e-3)

    def test_ids_sequential(self):
        doc = grid_network_doc(Scenario(grid_rows=3, grid_cols=3))
        ids = [f["properties"]["id"] for f in doc["features"]]
        assert ids == list(range(len(ids)))


class TestGenerate:
    def test_order_count_matches_profile(self, small_scenario, small_generated):
        expected = sum(small_scenario.demand_profile) * small_scenario.n_days
        assert small_generated.truth.n_orders == expected
        orders = {line.split(",")[1]
                  for line in small_generated.trace_csv.splitlines()[1:]}
        assert len(orders) == expected

    def test_ping_kinematics(self, small_generated):
        # 36 km/h at a 3 s period puts consecutive pings 30 m apart
        records, stats = parse_all(small_generated.trace_csv)
        assert stats.skipped == 0
        by_order = {}
        for r in records:
            by_order.setdefault(r.order_id, []).append(r)
        some = list(by_order.values())[:20]
        for pings in some:
            for a, b in zip(pings, pings[1:]):
                assert b.timestamp - a.timestamp == 3
                d_km = geo.haversine(a.lat, a.lon, b.lat, b.lon)
                assert d_km == pytest.approx(0.030, rel=1e-3)

    def test_seed_determinism(self):
        scenario = Scenario(seed=5, demand_profile=uniform_profile(2))
        a = generate(scenario)
        b = generate(scenario)
        assert a.trace_csv == b.trace_csv
        assert np.array_equal(a.truth.flow.values, b.truth.flow.values)
        assert np.array_equal(a.truth.speed.values, b.truth.speed.values)

    def test_seeds_differ(self):
        base = dict(demand_profile=uniform_profile(2))
        assert generate(Scenario(seed=1, **base)).trace_csv != \
            generate(Scenario(seed=2, **base)).trace_csv

    def test_truth_flow_totals(self, small_generated):
        # every order contributes to at least one cell, possibly two
        # (a trip can straddle an interval boundary)
        total = int(small_generated.truth.flow.values.sum())
        assert small_generated.truth.n_orders <= total <= 2 * small_generated.truth.n_orders

    def test_truth_speed_where_flow(self, small_generated):
        flow = small_generated.truth.flow.values
        speed = small_generated.truth.speed.values
        # speed is populated only where trips ran; cells with pairs show ~36 km/h
        assert np.all(speed[flow == 0] == 0.0)
        nz = speed[speed > 0]
        assert nz.size > 0
        np.testing.assert_allclose(nz, 36.0, rtol=1e-3)

    def test_per_road_speed_respected(self):
        scenario = Scenario(seed=3, demand_profile=uniform_profile(4),
                            per_road_speed_kmh={0: 18.0})
        gen = generate(scenario)
        row = gen.truth.speed.values[0]
        nz = row[row > 0]
        if nz.size:  # road 0 may receive no demand at low volumes
            np.testing.assert_allclose(nz, 18.0, rtol=1e-3)

    def test_offset_shifts_pings_only(self):
        base = Scenario(seed=4, demand_profile=uniform_profile(2))
        shifted = Scenario(seed=4, demand_profile=uniform_profile(2),
                           injected_offset=(0.002, -0.002))
        recs_a, _ = parse_all(generate(base).trace_csv)
        recs_b, _ = parse_all(generate(shifted).trace_csv)
        assert len(recs_a) == len(recs_b)
        for a, b in zip(recs_a[:100], recs_b[:100]):
            assert b.lat - a.lat == pytest.approx(0.002, abs=1e-9)
            assert b.lon - a.lon == pytest.approx(-0.002, abs=1e-9)

    def test_timestamps_utc_shifted(self):
        # local timestamps in the output are converted back to UTC
        gen = generate(Scenario(seed=6, demand_profile=uniform_profile(2),
                                tz_offset_s=0))
        records, _ = parse_all(gen.trace_csv)
        day_start_utc = int(datetime.datetime(2016, 10, 1,
                                              tzinfo=datetime.timezone.utc).timestamp())
        assert all(day_start_utc <= r.timestamp < day_start_utc + 86400
                   for r in records)


class TestCompare:
    def axis(self):
        return full_interval_axis(DAY, DAY)

    def test_exact(self):
        m = SpatioTemporalMatrix([0], self.axis(), np.ones((1, 96)))
        rep = compare(m, m)
        assert rep.exact and rep.max_abs == 0.0 and rep.max_rel == 0.0

    def test_off_by_one_cell(self):
        truth = SpatioTemporalMatrix([0], self.axis(), np.full((1, 96), 10.0))
        est_vals = truth.values.copy()
        est_vals[0, 5] = 10.5
        est = SpatioTemporalMatrix([0], self.axis(), est_vals)
        rep = compare(est, truth)
        assert not rep.exact
        assert rep.max_abs == pytest.approx(0.5)
        assert rep.max_rel == pytest.approx(0.05)

    def test_spurious_value_infinite_rel(self):
        truth = SpatioTemporalMatrix([0], self.axis(), np.zeros((1, 96)))
        est_vals = np.zeros((1, 96))
        est_vals[0, 0] = 1.0
        rep = compare(SpatioTemporalMatrix([0], self.axis(), est_vals), truth)
        assert rep.max_rel == float("inf")

    def test_axis_mismatch(self):
        a = SpatioTemporalMatrix([0], self.axis(), np.zeros((1, 96)))
        b = SpatioTemporalMatrix([1], self.axis(), np.zeros((1, 96)))
        with pytest.raises(ComparisonError):
            compare(a, b)


class TestInjectAnomalies:
    def matrix(self):
        rng = np.random.default_rng(8)
        values = rng.uniform(20, 60, (10, 96))
        return SpatioTemporalMatrix(list(range(10)), full_interval_axis(DAY, DAY),
                                    values)

    def test_count_and_values(self):
        m = self.matrix()
        out, n, idx = inject_anomalies(m, rate=0.05, seed=1)
        assert n == round(0.05 * m.values.size) == len(idx)
        flat = out.values.ravel()
        assert np.all(flat[idx] >= 90.0) and np.all(flat[idx] <= 150.0)

    def test_untouched_cells_identical(self):
        m = self.matrix()
        out, _, idx = inject_anomalies(m, rate=0.1, seed=2)
        mask = np.ones(m.values.size, dtype=bool)
        mask[idx] = False
        np.testing.assert_array_equal(out.values.ravel()[mask],
                                      m.values.ravel()[mask])

    def test_original_not_mutated(self):
        m = self.matrix()
        before = m.values.copy()
        inject_anomalies(m, rate=0.1, seed=3)
        np.testing.assert_array_equal(m.values, before)

    def test_only_nonzero_targets(self):
        values = np.zeros((2, 96))
        values[0, :10] = 30.0
        m = SpatioTemporalMatrix([0, 1], full_interval_axis(DAY, DAY), values)
        out, n, idx = inject_anomalies(m, rate=0.5, seed=4)
        assert n == 10  # capped at the eligible-cell count
        assert np.all(idx < 10)

    def test_deterministic(self):
        m = self.matrix()
        a = inject_anomalies(m, rate=0.05, seed=9)
        b = inject_anomalies(m, rate=0.05, seed=9)
        np.testing.assert_array_equal(a[0].values, b[0].values)
        np.testing.assert_array_equal(a[2], b[2])
