from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracepattern.errors import OffsetCapError, OffsetEstimationError
from tracepattern.ingest import TraceBatch, day_slot
from tracepattern.matching import (OffsetVector, apply_offset, estimate_offset,
                                   match_batch)
from tracepattern.network import load_network
from tracepattern.synth import Scenario, generate, uniform_profile

from conftest import (TraceRecord, batch_from_records, negated, parse_all,
                      point_to_segment_distance)


def batch(*points, ts=1475280000, order="o1"):
    """A TraceBatch of (lat, lon) points."""
    return batch_from_records([TraceRecord("d1", order, ts, lat, lon)
                               for lat, lon in points])


class TestOffsetVector:
    def test_cap_rejects_large_offset(self):
        with pytest.raises(OffsetCapError):
            OffsetVector(0.05, 0.0)

    def test_within_cap(self):
        v = OffsetVector(0.002, -0.002)
        assert negated(v) == OffsetVector(-0.002, 0.002)


class TestApplyOffset:
    def test_translation(self):
        out, skipped = apply_offset(batch((30.65, 104.06)), OffsetVector(0.001, -0.001))
        assert skipped == 0
        assert out.lat[0] == pytest.approx(30.651)
        assert out.lon[0] == pytest.approx(104.059)

    def test_zero_offset_identity(self):
        b = batch((30.65, 104.06), (31.0, 105.0))
        out, skipped = apply_offset(b, OffsetVector(0.0, 0.0))
        assert skipped == 0
        for name in ("order_id", "timestamp", "lat", "lon"):
            assert np.array_equal(getattr(out, name), getattr(b, name))
        # no row dropped: the columns are not gathered
        assert out.order_id is b.order_id and out.timestamp is b.timestamp

    def test_out_of_range_skipped(self):
        out, skipped = apply_offset(batch((89.9999, 104.06)), OffsetVector(0.001, 0.0))
        assert len(out) == 0 and skipped == 1

    @given(dlat=st.floats(-0.009, 0.009), dlon=st.floats(-0.009, 0.009))
    @settings(max_examples=30, deadline=None)
    def test_invertible(self, dlat, dlon):
        b = batch((30.65, 104.06), (30.7, 104.1))
        off = OffsetVector(dlat, dlon)
        fwd, _ = apply_offset(b, off)
        back, _ = apply_offset(fwd, negated(off))
        np.testing.assert_allclose(back.lat, b.lat, rtol=0, atol=1e-12)
        np.testing.assert_allclose(back.lon, b.lon, rtol=0, atol=1e-12)


class TestEstimateOffset:
    @pytest.mark.parametrize("shift", [(0.002, -0.002), (-0.002, 0.002), (0.002, 0.002)])
    def test_recovers_injected_shift(self, shift):
        scenario = Scenario(seed=11, demand_profile=uniform_profile(2),
                            injected_offset=shift)
        gen = generate(scenario)
        net = load_network(gen.network_doc)
        records, _ = parse_all(gen.trace_csv)
        off = estimate_offset(records[:1000], net)
        assert off.dlat == pytest.approx(-shift[0], rel=0.1)
        assert off.dlon == pytest.approx(-shift[1], rel=0.1)

    def test_identity_on_clean_traces(self, small_generated, small_net, small_records):
        off = estimate_offset(small_records[:1000], small_net)
        assert abs(off.dlat) < 1e-5 and abs(off.dlon) < 1e-5

    def test_sample_too_small(self, small_net, small_records):
        with pytest.raises(OffsetEstimationError):
            estimate_offset(small_records[:10], small_net)

    def test_oversized_shift_rejected(self):
        scenario = Scenario(seed=12, demand_profile=uniform_profile(2),
                            injected_offset=(0.05, 0.0))
        gen = generate(scenario)
        net = load_network(gen.network_doc)
        records, _ = parse_all(gen.trace_csv)
        with pytest.raises(OffsetCapError):
            estimate_offset(records[:1000], net)

    @staticmethod
    def _partly_off_network(moved_fraction, shift=(0.002, -0.002)):
        """A 1,000-row sample with an injected shift, ``moved_fraction`` of
        its rows (spread evenly) moved a further 0.05° (~5.6 km) north, off
        the 4 km grid; and its network."""
        scenario = Scenario(seed=11, demand_profile=uniform_profile(2),
                            injected_offset=shift)
        gen = generate(scenario)
        records, _ = parse_all(gen.trace_csv)
        sample = records[:1000]
        moved = np.arange(len(sample)) % 20 < round(20 * moved_fraction)
        return replace(sample, lat=sample.lat + np.where(moved, 0.05, 0.0)), \
            load_network(gen.network_doc)

    @pytest.mark.parametrize("moved_fraction", [0.1, 0.3, 0.45])
    def test_off_network_minority_ignored(self, moved_fraction):
        shift = (0.002, -0.002)
        sample, net = self._partly_off_network(moved_fraction, shift)
        off = estimate_offset(sample, net)
        assert off.dlat == pytest.approx(-shift[0], rel=0.1)
        assert off.dlon == pytest.approx(-shift[1], rel=0.1)

    def test_off_network_majority_rejected(self):
        sample, net = self._partly_off_network(0.6)
        with pytest.raises(OffsetCapError, match="data/network pairing"):
            estimate_offset(sample, net)

    def test_deterministic(self, small_net, small_records):
        a = estimate_offset(small_records[:1000], small_net)
        b = estimate_offset(small_records[:1000], small_net)
        assert a == b


class TestMatchBatch:
    def test_empty_batch(self, small_net):
        matched, unmatched = match_batch(batch(), small_net)
        assert len(matched) == 0 and unmatched == 0

    def test_on_road_points_match_generating_segment(self, small_generated, small_net,
                                                     small_records):
        matched, unmatched = match_batch(small_records, small_net)
        assert unmatched == 0
        assert isinstance(matched, TraceBatch) and len(matched) == len(small_records)
        assert matched.order_id is small_records.order_id  # no row dropped, no gather
        for lat, lon, road in zip(matched.lat, matched.lon, matched.road_id):
            assert point_to_segment_distance(lat, lon, small_net.segments[road]) <= 0.05

    def test_far_point_unmatched(self, small_net):
        matched, unmatched = match_batch(batch((40.0, 110.0)), small_net)
        assert len(matched) == 0 and unmatched == 1

    def test_interval_labels_attached(self, small_net, small_records):
        matched, unmatched = match_batch(small_records[:50], small_net)
        assert unmatched == 0
        np.testing.assert_array_equal(matched.timestamp, small_records[:50].timestamp)
        _, slot = day_slot(matched.timestamp)
        assert np.all((0 <= slot) & (slot < 96))

    def test_full_match_after_correction(self):
        shift = (0.002, -0.002)
        scenario = Scenario(seed=13, demand_profile=uniform_profile(2),
                            injected_offset=shift)
        gen = generate(scenario)
        net = load_network(gen.network_doc)
        records, _ = parse_all(gen.trace_csv)
        off = estimate_offset(records[:1000], net)
        corrected, _ = apply_offset(records, off)
        matched, unmatched = match_batch(corrected, net)
        assert unmatched == 0 and len(matched) == len(records)
