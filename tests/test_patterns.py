import dataclasses
import datetime
import pickle
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracepattern import geo, patterns
from tracepattern.errors import TensorKeyError
from tracepattern.ingest import TraceBatch
from tracepattern.matching import match_batch
from tracepattern.patterns import (SpatioTemporalMatrix, TensorBuilder,
                                   clean_speed_matrix, filter_missing,
                                   full_interval_axis)

from conftest import (assert_bits_equal, assign_interval, clean_by_rows,
                      finalize_by_lexsort, interpolate_missing, odd_grid,
                      repair_anomalies, sparse_anomalous_grid, traced_peak)

DAY = datetime.date(2016, 10, 1)
LAT, LON = 30.65, 104.06
KM = 1 / geo.KM_PER_DEG  # degrees of latitude per km


def mp(road, ts, lat, lon, order="o1"):
    """One matched ping, as a (road, ts, lat, lon, order) row."""
    return road, ts, lat, lon, order


def matched(rows):
    """A matched TraceBatch from mp() rows."""
    road, ts, lat, lon, order = zip(*rows)
    return TraceBatch(np.array(order, dtype=object), np.array(ts, dtype=np.int64),
                      np.array(lat), np.array(lon), np.array(road, dtype=np.int64))


def tensors(rows, road_ids=(1, 2)):
    """(flow, speed) of one batch of mp() rows."""
    builder = TensorBuilder(road_ids)
    builder.add(matched(rows))
    return builder.finalize()


def pair_speeds(rows):
    """The non-empty speed cells, each a mean over the pairs starting in it."""
    _, speed = tensors(rows)
    return speed.values[speed.values != 0.0]


def oracle_tensors(matched, road_ids, intervals):
    """(flow, speed) grids of a matched batch by grouped per-order
    recomputation: no chunking, pure dict/loops."""
    by_order = {}
    for order, ts, road, lat, lon in zip(matched.order_id, matched.timestamp.tolist(),
                                         matched.road_id.tolist(), matched.lat.tolist(),
                                         matched.lon.tolist()):
        by_order.setdefault(order, []).append((ts, road, lat, lon))
    col_of = {iv: j for j, iv in enumerate(intervals)}
    row_of = {rid: i for i, rid in enumerate(road_ids)}
    flow_sets = {}
    v_acc = {}
    for order, pts in by_order.items():
        pts.sort(key=lambda p: p[0])
        for ts, road, _, _ in pts:
            flow_sets.setdefault((road, assign_interval(ts)), set()).add(order)
        for (ts_a, road_a, lat_a, lon_a), (ts_b, road_b, lat_b, lon_b) in zip(pts, pts[1:]):
            dt = ts_b - ts_a
            if road_a != road_b or dt <= 0 or dt > 10:
                continue
            d = geo.haversine(lat_a, lon_a, lat_b, lon_b)
            v_acc.setdefault((road_a, assign_interval(ts_a)), []).append(d / (dt / 3600.0))
    flow = np.zeros((len(road_ids), len(intervals)), dtype=np.int64)
    for (rid, iv), orders in flow_sets.items():
        flow[row_of[rid], col_of[iv]] = len(orders)
    speed = np.zeros(flow.shape)
    for (rid, iv), vs in v_acc.items():
        speed[row_of[rid], col_of[iv]] = np.mean(vs)
    return flow, speed


def assert_matches_oracle(flow, speed, matched):
    exp_flow, exp_speed = oracle_tensors(matched, flow.road_ids, flow.intervals)
    assert np.array_equal(flow.values, exp_flow)
    np.testing.assert_allclose(speed.values, exp_speed, rtol=1e-12, atol=1e-12)


def assert_same_bits(a, b):
    """Two (flow, speed) results hold the same axes, dtypes and bytes."""
    for x, y in zip(a, b):
        assert x.road_ids == y.road_ids and x.intervals == y.intervals
        assert x.values.dtype == y.values.dtype
        assert x.values.tobytes() == y.values.tobytes()


def interleaved(matched, seed=0):
    """The rows of ``matched`` re-sent as runs of 1-4 rows of one order at a
    time, orders picked at random (A A B A C C B ...); each order keeps its
    own row order."""
    rng = np.random.default_rng(seed)
    queues = {}
    for i, order in enumerate(matched.order_id):
        queues.setdefault(order, []).append(i)
    pending = list(queues.values())
    rows = []
    while pending:
        k = int(rng.integers(len(pending)))
        run = int(rng.integers(1, 5))
        rows.extend(pending[k][:run])
        del pending[k][:run]
        if not pending[k]:
            pending.pop(k)
    return matched[np.array(rows)]


class TestHaversine:
    def test_identity(self):
        assert geo.haversine(30.65, 104.06, 30.65, 104.06) == 0.0

    def test_quarter_great_circle(self):
        # pole to equator with r = 6378.137: pi * r / 2
        assert geo.haversine(90, 0, 0, 0) == pytest.approx(10018.754, abs=1e-3)

    def test_meridian_small_arc(self):
        assert geo.haversine(30.65, 104.06, 30.66, 104.06) == \
            pytest.approx(1.1132, abs=5e-4)

    def test_symmetry(self):
        assert geo.haversine(30.1, 104.2, 31.3, 105.4) == \
            geo.haversine(31.3, 105.4, 30.1, 104.2)

    def test_high_precision_oracle(self):
        import mpmath as mp_

        mp_.mp.dps = 50
        rng = np.random.default_rng(42)
        for _ in range(1000):
            lat1, lat2 = rng.uniform(-85, 85, 2)
            lon1, lon2 = rng.uniform(-180, 180, 2)
            got = geo.haversine(lat1, lon1, lat2, lon2)
            p1, p2 = mp_.mpf(lat1) * mp_.pi / 180, mp_.mpf(lat2) * mp_.pi / 180
            dl = (mp_.mpf(lon2) - mp_.mpf(lon1)) * mp_.pi / 180
            num = mp_.sqrt((mp_.cos(p2) * mp_.sin(dl)) ** 2 +
                           (mp_.cos(p1) * mp_.sin(p2) -
                            mp_.sin(p1) * mp_.cos(p2) * mp_.cos(dl)) ** 2)
            den = mp_.sin(p1) * mp_.sin(p2) + mp_.cos(p1) * mp_.cos(p2) * mp_.cos(dl)
            expected = float(mp_.mpf("6378.137") * mp_.atan2(num, den))
            assert got == pytest.approx(expected, rel=1e-6, abs=1e-9)


class TestBuildPairs:
    """Pair construction inside TensorBuilder.finalize."""

    def test_pair_speed(self):
        # ~50 m apart, 5 s apart -> 36 km/h
        v = pair_speeds([mp(1, 1000, LAT, LON), mp(1, 1005, LAT + 0.05 * KM, LON)])
        assert v.size == 1
        assert v[0] == pytest.approx(36.0, rel=1e-6)

    def test_gap_above_threshold_dropped(self):
        assert pair_speeds([mp(1, 1000, LAT, LON), mp(1, 1015, 30.651, LON)]).size == 0

    def test_boundary_inclusive(self):
        assert pair_speeds([mp(1, 1000, LAT, LON), mp(1, 1010, 30.651, LON)]).size == 1

    def test_duplicate_timestamp_dropped(self):
        assert pair_speeds([mp(1, 1000, LAT, LON), mp(1, 1000, 30.651, LON)]).size == 0

    def test_cross_road_dropped(self):
        assert pair_speeds([mp(1, 1000, LAT, LON), mp(2, 1003, 30.651, LON)]).size == 0


class TestRoadMeanSpeed:
    """A speed cell is the arithmetic mean of its pair speeds."""

    def test_mean(self):
        v = pair_speeds([mp(1, 1000, LAT, LON), mp(1, 1005, LAT + 0.05 * KM, LON),
                         mp(1, 1010, LAT + 0.15 * KM, LON)])  # 36 and 72 km/h
        assert v.size == 1
        assert v[0] == pytest.approx(54.0, rel=1e-6)

    def test_empty_is_zero(self):
        flow, speed = tensors([mp(1, 1000, LAT, LON)])
        assert flow.values.sum() == 1
        assert not speed.values.any()

    def test_single_pair(self):
        v = pair_speeds([mp(1, 1000, LAT, LON), mp(1, 1005, LAT + 0.05 * KM, LON)])
        assert v.tolist() == [pytest.approx(36.0, rel=1e-6)]


class TestFlowCount:
    """A flow cell counts the distinct order ids among its points."""

    def test_distinct_orders(self):
        flow, _ = tensors([mp(1, 1000 + i, LAT, LON, order=o)
                           for i, o in enumerate(["o1", "o1", "o2", "o3", "o3"])])
        assert flow.values[flow.values != 0].tolist() == [3]

    def test_empty(self):
        flow, _ = tensors([mp(1, 1000, LAT, LON)])
        assert not flow.values[flow.road_ids.index(2)].any()

    def test_matches_hash_set_oracle(self):
        rng = np.random.default_rng(3)
        n = 10_000
        orders = [f"o{rng.integers(0, 500)}" for _ in range(n)]
        roads = rng.integers(1, 3, n).tolist()
        stamps = (1000 + np.arange(n) * 29).tolist()  # ~3.4 days
        flow, _ = tensors([mp(r, t, LAT, LON, order=o)
                           for r, t, o in zip(roads, stamps, orders)])
        assert len(flow.days()) >= 4
        col_of = {iv: j for j, iv in enumerate(flow.intervals)}
        expected = np.zeros_like(flow.values)
        by_cell = {}
        for road, ts, o in zip(roads, stamps, orders):
            by_cell.setdefault((road, col_of[assign_interval(ts)]), set()).add(o)
        for (road, col), seen in by_cell.items():
            expected[flow.road_ids.index(road), col] = len(seen)
        assert np.array_equal(flow.values, expected)
        assert flow.values[0].any() and flow.values[1].any()


class TestTensorBuilder:
    def test_single_pair_cell(self):
        a = mp(3, 32 * 900 + 10, 30.65, 104.06)
        b = mp(3, 32 * 900 + 15, 30.65 + 0.05 / geo.KM_PER_DEG, 104.06)
        builder = TensorBuilder(road_ids=[0, 3, 5], tz_offset_s=0)
        builder.add(matched([a, b]))
        flow, speed = builder.finalize()
        r = flow.road_ids.index(3)
        assert flow.values[r, 32] == 1
        assert speed.values[r, 32] == pytest.approx(36.0, rel=1e-6)
        assert flow.values.sum() == 1  # one order, one cell

    def test_empty_stream(self):
        flow, speed = TensorBuilder([1, 2]).finalize()
        assert flow.values.shape == speed.values.shape == (2, 0)
        assert flow.values.dtype == np.int64 and speed.values.dtype == np.float64

    @pytest.mark.parametrize("rows", [[], [mp(1, 1000, LAT, LON)]])
    def test_finalize_consumes_the_builder(self, rows):
        builder = TensorBuilder([1, 2])
        if rows:
            builder.add(matched(rows))
        builder.finalize()
        with pytest.raises(ValueError, match="TensorBuilder already finalized"):
            builder.finalize()
        with pytest.raises(ValueError, match="TensorBuilder already finalized"):
            builder.add(matched([mp(2, 2000, LAT, LON)]))

    @pytest.mark.parametrize("road_ids, roads", [
        ((1, 2, 5), None),    # no road id column
        ((1, 2, 5), [1, 3]),  # between two axis ids
        ((1, 2, 5), [2, 0]),  # below the axis
        ((1, 2, 5), [1, 9]),  # past the axis end
        ((), [1, 1]),         # an empty axis
    ], ids=["no_road_ids", "between", "below", "past_end", "empty_axis"])
    def test_add_rejects_a_road_off_the_axis(self, road_ids, roads):
        builder = TensorBuilder(road_ids)
        batch = dataclasses.replace(
            matched([mp(1, 1000, LAT, LON), mp(1, 1005, LAT, LON)]),
            road_id=None if roads is None else np.array(roads, dtype=np.int64))
        with pytest.raises(ValueError, match="a road id from the builder's road axis"):
            builder.add(batch)
        assert builder.n_points == 0 and not builder._order_idx

    def test_chunk_invariance_on_synthetic(self, small_generated, small_net,
                                           small_records):
        matched, _ = match_batch(small_records, small_net)
        results = []
        for chunk_size in (1, 7, 10_000, len(matched)):
            builder = TensorBuilder(small_net.ordered_ids())
            for i in range(0, len(matched), chunk_size):
                builder.add(matched[i:i + chunk_size])
            results.append(builder.finalize())
        flow0, speed0 = results[0]
        for flow, speed in results[1:]:
            assert np.array_equal(flow.values, flow0.values)
            assert np.array_equal(speed.values, speed0.values)
            assert flow.intervals == flow0.intervals

    def test_flow_bounded_by_point_count(self, small_net, small_records):
        matched, _ = match_batch(small_records, small_net)
        builder = TensorBuilder(small_net.ordered_ids())
        builder.add(matched)
        flow, _ = builder.finalize()
        raw = np.zeros_like(flow.values)
        col_of = {iv: j for j, iv in enumerate(flow.intervals)}
        row_of = {rid: i for i, rid in enumerate(flow.road_ids)}
        for road, ts in zip(matched.road_id.tolist(), matched.timestamp.tolist()):
            raw[row_of[road], col_of[assign_interval(ts)]] += 1
        assert np.all(flow.values <= raw)

    def test_matches_in_memory_oracle(self, small_net, small_records):
        """Grouped per-order recomputation, no chunking, pure dict/loops."""
        matched, _ = match_batch(small_records, small_net)
        builder = TensorBuilder(small_net.ordered_ids())
        builder.add(matched)
        assert_matches_oracle(*builder.finalize(), matched)

    def test_interleaved_orders_under_chunking(self, small_net, small_records):
        """Order-id runs split across chunk boundaries keep first-seen codes."""
        rows = interleaved(match_batch(small_records, small_net)[0])
        ids = rows.order_id
        assert (ids[1:] != ids[:-1]).mean() > 0.3  # short runs, many repeats
        assert len(set(ids.tolist())) < 0.5 * len(rows)
        results = []
        for chunk_size in (1, 2, 7, len(rows)):
            builder = TensorBuilder(small_net.ordered_ids())
            for i in range(0, len(rows), chunk_size):
                builder.add(rows[i:i + chunk_size])
            results.append(builder.finalize())
        for result in results[1:]:
            assert_same_bits(result, results[0])
        assert_matches_oracle(*results[0], rows)

    def test_merge_continues_the_first_seen_codes(self, small_net, small_records):
        """Rows cut in two at any point, the back merged in as another
        builder, also through a pickle, give the bytes of one builder that
        saw them all."""
        rows = interleaved(match_batch(small_records, small_net)[0])
        whole = TensorBuilder(small_net.ordered_ids())
        whole.add(rows)
        want = whole.finalize()
        for cut in (0, 1, len(rows) // 3, len(rows) // 2 + 1, len(rows)):
            for hand_over in (lambda b: b, lambda b: pickle.loads(pickle.dumps(b, 5))):
                front, back = (TensorBuilder(small_net.ordered_ids()) for _ in range(2))
                front.add(rows[:cut])
                for i in range(cut, len(rows), 7):
                    back.add(rows[i:i + 7])
                front.merge(hand_over(back))
                assert front.n_points == len(rows)
                assert_same_bits(front.finalize(), want)

    def test_merging_an_empty_builder_changes_nothing(self, small_net, small_records):
        rows = match_batch(small_records, small_net)[0]
        alone, merged = (TensorBuilder(small_net.ordered_ids()) for _ in range(2))
        alone.add(rows)
        merged.add(rows)
        merged.merge(TensorBuilder(small_net.ordered_ids()))
        assert merged.n_points == len(rows)
        assert_same_bits(merged.finalize(), alone.finalize())

    @pytest.mark.parametrize("other", [
        lambda: TensorBuilder((1, 2, 5, 6)),
        lambda: TensorBuilder((1, 2, 5), pair_dt_max_s=11),
        lambda: TensorBuilder((1, 2, 5), tz_offset_s=0),
    ], ids=["road_axis", "pair_dt_max_s", "tz_offset_s"])
    def test_merge_rejects_another_axis_or_setting(self, other):
        builder, other = TensorBuilder((1, 2, 5)), other()
        other.add(matched([mp(2, 1000, LAT, LON)]))
        with pytest.raises(ValueError, match="the same road axis and settings"):
            builder.merge(other)
        assert builder.n_points == 0 and not builder._order_idx
        assert other.n_points == 1

    def test_a_merged_builder_is_consumed(self):
        builder, other = TensorBuilder((1, 2, 5)), TensorBuilder((1, 2, 5))
        other.add(matched([mp(2, 1000, LAT, LON)]))
        builder.merge(other)
        for use in (lambda: other.add(matched([mp(2, 2000, LAT, LON)])),
                    other.finalize, lambda: other.merge(TensorBuilder((1, 2, 5))),
                    lambda: TensorBuilder((1, 2, 5)).merge(other)):
            with pytest.raises(ValueError, match="merged into another"):
                use()
        with pytest.raises(ValueError, match="cannot merge itself"):
            builder.merge(builder)
        assert builder.n_points == 1

    def test_pair_block_edges(self, monkeypatch, small_net, small_records):
        matched_rows, _ = match_batch(small_records, small_net)
        by_block = []
        for block in (patterns._PAIR_BLOCK, 3):
            monkeypatch.setattr(patterns, "_PAIR_BLOCK", block)
            builder = TensorBuilder(small_net.ordered_ids())
            builder.add(matched_rows)
            by_block.append(builder.finalize())
        assert np.count_nonzero(by_block[0][1].values) > 3
        assert_same_bits(by_block[1], by_block[0])


ROADS = (1, 2, 5)
MIDNIGHT = 1475308800  # 2016-10-02 00:00 at UTC+8
steps = st.sampled_from([0, 0, 1, 4, 10, 11, 900])  # seconds to the next ping
walks = st.lists(st.tuples(steps, st.sampled_from(ROADS)), min_size=1, max_size=10)


@st.composite
def order_streams(draw):
    """Matched rows of a few orders as one stream: shuffled, interleaved
    in runs that keep each order's own row order, or order after order,
    which is the (order, ts) key order of finalize. A step of
    0 s repeats a timestamp, often on another road; there is always a
    single-row order and one order that spans days, whose first two rows
    share a timestamp on two roads."""
    rnd = draw(st.randoms(use_true_random=False))
    span_days = [(0, 1), (0, 2), (3, 2), *draw(walks),
                 (draw(st.sampled_from([86_400, 2 * 86_400])), 5), *draw(walks)]
    plans = [(MIDNIGHT - draw(st.integers(0, 60)), span_days),
             (MIDNIGHT - draw(st.integers(0, 7200)), [(0, draw(st.sampled_from(ROADS)))])]
    plans += [(MIDNIGHT - draw(st.integers(0, 7200)), w)
              for w in draw(st.lists(walks, max_size=4))]
    queues = []
    for k, (ts, walk) in enumerate(plans):
        rows = []
        for step, road in walk:
            ts += step
            rows.append((f"o{k}", ts, road, 30.65 + rnd.random() * 0.01,
                         104.06 + rnd.random() * 0.01))
        queues.append(rows)
    layout = draw(st.sampled_from(["shuffled", "interleaved", "grouped"]))
    if layout != "interleaved":
        stream = [row for rows in queues for row in rows]
        if layout == "shuffled":
            rnd.shuffle(stream)
    else:
        stream = []
        while queues:
            rows = queues[rnd.randrange(len(queues))]
            run = rnd.randint(1, 3)
            stream += rows[:run]
            del rows[:run]
            queues = [q for q in queues if q]
    order, ts, road, lat, lon = zip(*stream)
    return TraceBatch(np.array(order, dtype=object), np.array(ts, dtype=np.int64),
                      np.array(lat), np.array(lon), np.array(road, dtype=np.int64))


class TestFinalizeEqualsLexsortOracle:
    """finalize's packed-key sorts give the bits of the two lexsorts."""

    @given(rows=order_streams())
    @settings(max_examples=200, deadline=None)
    def test_streams(self, rows):
        want_flow, want_speed, want_axis = finalize_by_lexsort(rows, ROADS)
        assert len(want_axis) >= 2 * 96
        for chunk in (1, 3, len(rows)):
            builder = TensorBuilder(ROADS)
            for i in range(0, len(rows), chunk):
                builder.add(rows[i:i + chunk])
            flow, speed = builder.finalize()
            assert flow.intervals == want_axis
            assert flow.values.dtype == np.int64
            np.testing.assert_array_equal(flow.values, want_flow)
            np.testing.assert_array_equal(speed.values.view(np.int64),
                                          want_speed.view(np.int64))

    @pytest.mark.parametrize("grouped, sorts", [(True, 0), (False, 1)])
    def test_rows_in_key_order_are_not_sorted(self, monkeypatch, grouped, sorts):
        rows = TraceBatch(np.array(["b", "b", "a", "a", "a"], dtype=object),
                          MIDNIGHT + np.array([0, 5, 900, 900, 908]),
                          np.array([30.65, 30.651, 30.66, 30.662, 30.664]),
                          np.full(5, 104.06), np.array(ROADS[:1] * 5, dtype=np.int64))
        if not grouped:
            rows = rows[[0, 2, 1, 3, 4]]
        want_flow, want_speed, _ = finalize_by_lexsort(rows, ROADS)
        calls = []
        argsort = np.argsort
        monkeypatch.setattr(np, "argsort", lambda *a, **k: calls.append(1) or argsort(*a, **k))
        builder = TensorBuilder(ROADS)
        builder.add(rows)
        flow, speed = builder.finalize()
        assert len(calls) == sorts
        assert np.count_nonzero(want_speed) == 2
        np.testing.assert_array_equal(flow.values, want_flow)
        np.testing.assert_array_equal(speed.values.view(np.int64), want_speed.view(np.int64))

    def test_on_synthetic(self, small_net, small_records):
        rows = interleaved(match_batch(small_records, small_net)[0], seed=4)
        want_flow, want_speed, _ = finalize_by_lexsort(rows, small_net.ordered_ids())
        builder = TensorBuilder(small_net.ordered_ids())
        builder.add(rows)
        flow, speed = builder.finalize()
        assert np.count_nonzero(want_speed) > 100
        np.testing.assert_array_equal(flow.values, want_flow)
        np.testing.assert_array_equal(speed.values.view(np.int64), want_speed.view(np.int64))


class TestPackedKey:
    """Both sort keys of finalize come from one helper with one bound."""

    @pytest.mark.parametrize("top, n_minor, minor0", [
        (2**62 - 1, 2, 0), (2**31 - 1, 2**32, 0), (2**63 - 1, 1, 0),
        (2**62 - 1, 2, -5),  # wraps past int64 while it is built
        (2**31 - 1, 2**32, 1475251200), (0, 2**63, -2**62),
    ])
    def test_largest_key_at_the_bound(self, top, n_minor, minor0):
        key = patterns._packed_key(np.array([0, top]),
                                   np.array([minor0, minor0 + n_minor - 1]), n_minor, minor0)
        assert key.dtype == np.int64 and key.tolist() == [0, 2**63 - 1]

    @pytest.mark.parametrize("top, n_minor", [
        (3074457345618258602, 3),  # largest key exactly 2**63
        (2**62, 2), (2**31, 2**32), (0, 2**63 + 1),
    ])
    def test_one_past_the_bound_raises(self, top, n_minor):
        with pytest.raises(TensorKeyError) as err:
            patterns._packed_key(np.array([0, top]), np.array([0, 1]), n_minor)
        assert str(err.value) == (f"{top + 1} orders x {n_minor} values need sort key "
                                  f"{top * n_minor + n_minor - 1}, past the largest "
                                  f"int64 key {2**63 - 1}")

    def test_finalize_raises_past_the_bound(self, monkeypatch):
        builder = TensorBuilder(ROADS)
        builder.add(matched([mp(1, 1000, LAT, LON), mp(1, 1005, LAT, LON, order="o2")]))
        monkeypatch.setattr(patterns, "_KEY_LIMIT", 11)  # orders 0, 1 x 6 s: key 11
        with pytest.raises(TensorKeyError, match="2 orders x 6 values need sort key 11"):
            builder.finalize()


class TestFinalizeMemory:
    """finalize holds its input columns and a few column-length temporaries."""

    def test_traced_peak(self):
        rng = np.random.default_rng(11)
        runs = rng.integers(5, 26, 33_000)  # grouped rows, ~15 per order
        n = int(runs.sum())
        order = np.repeat(np.array([f"o{i}" for i in range(runs.size)], dtype=object), runs)
        step = np.arange(n) - np.repeat(np.cumsum(runs) - runs, runs)
        ts = np.repeat(rng.integers(1475251200, 1475337000, runs.size), runs) + 3 * step
        road = np.repeat(rng.integers(0, 50, runs.size), runs)
        lat = LAT + rng.random(n) * 0.01
        lon = LON + rng.random(n) * 0.01
        builder = TensorBuilder(range(50))
        for i in range(0, n, 100_000):
            rows = slice(i, i + 100_000)
            builder.add(TraceBatch(order[rows], ts[rows].copy(), lat[rows].copy(),
                                   lon[rows].copy(), road[rows].copy()))
        del ts, lat, lon, road
        column_bytes = 5 * 8 * n  # order codes, ts, road, lat, lon
        tracemalloc.start()
        try:
            flow, speed = builder.finalize()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert n > 450_000
        assert speed.values.any()
        # the dense grids are small here; the columns dominate
        assert peak < 2.5 * column_bytes + 4 * flow.values.nbytes

    def test_heap_is_trimmed_once_the_parts_are_freed(self, monkeypatch, small_net,
                                                       small_records):
        """finalize hands the freed heap back after each column's join, once
        all of that column's chunk parts are dropped and before the next
        column's; without malloc_trim the result is the same."""
        rows, _ = match_batch(small_records, small_net)

        def filled():
            builder = TensorBuilder(small_net.ordered_ids())
            for i in range(0, len(rows), 7):
                builder.add(rows[i:i + 7])
            return builder

        builder = filled()
        parts = [[weakref.ref(p) for p in column] for column in builder._columns]
        alive_at_release = []  # per column, the parts alive at each trim
        monkeypatch.setattr(patterns, "_release_freed_heap", lambda: alive_at_release.append(
            [sum(r() is not None for r in column) for column in parts]))
        want = builder.finalize()
        sizes = [len(column) for column in parts]
        assert len(sizes) == 5 and min(sizes) > 20
        assert alive_at_release == [[0] * (i + 1) + sizes[i + 1:] for i in range(5)]

        def no_c_library(name):
            raise OSError("no C library here")

        monkeypatch.undo()
        monkeypatch.setattr(patterns.ctypes, "CDLL", no_c_library)
        assert_same_bits(filled().finalize(), want)


class TestFilterMissing:
    def axis(self):
        return full_interval_axis(DAY, DAY)

    def matrix(self, rows):
        return SpatioTemporalMatrix(list(range(len(rows))), self.axis(),
                                    np.asarray(rows, dtype=float))

    def test_above_threshold_dropped(self):
        row = np.full(96, 30.0)
        row[:30] = 0.0  # 31% missing
        retained, dropped = filter_missing(self.matrix([row]), 0.2)
        assert dropped == [0] and retained.road_ids == []

    def test_below_threshold_retained(self):
        row = np.full(96, 30.0)
        row[:10] = 0.0  # 10.4%
        retained, dropped = filter_missing(self.matrix([row]), 0.2)
        assert dropped == [] and retained.road_ids == [0]
        assert len(retained.intervals) == 96

    def test_vacuous_threshold(self):
        retained, dropped = filter_missing(self.matrix([np.zeros(96)]), 1.0)
        assert dropped == []

    def test_matches_brute_force_fraction(self):
        rng = np.random.default_rng(5)
        rows = np.where(rng.random((40, 96)) < 0.25, 0.0, 30.0)
        retained, dropped = filter_missing(self.matrix(rows), 0.2)
        for i, row in enumerate(rows):
            frac = sum(1 for v in row if v == 0) / 96
            assert (i in dropped) == (frac > 0.2)


def clean_rows(rows, max_missing_fraction=1.0, anomaly_kmh=70.0):
    """``clean_speed_matrix`` of a grid of ``rows``, checked against the
    road-by-road oracle; returns its report."""
    rows = np.array(rows, dtype=float).reshape(len(rows), -1)
    axis = full_interval_axis(DAY, DAY + datetime.timedelta(days=3))[:rows.shape[1]]
    matrix = SpatioTemporalMatrix(list(range(len(rows))), axis, rows)
    report = clean_speed_matrix(matrix, max_missing_fraction, anomaly_kmh)
    values, dropped, flagged, anomalies = clean_by_rows(matrix, max_missing_fraction,
                                                       anomaly_kmh)
    assert_bits_equal(report.speeds.values, values)
    assert (report.dropped_road_ids, report.flagged_road_ids, report.anomaly_count) == \
        (dropped, flagged, anomalies)
    return report


def clean_row(row, anomaly_kmh=70.0):
    """(cleaned row, anomaly count) of a one-road grid."""
    report = clean_rows([row], anomaly_kmh=anomaly_kmh)
    return report.speeds.values[0], report.anomaly_count


class TestInterpolateMissing:
    def test_linear_fill(self):
        np.testing.assert_allclose(clean_row([20, 0, 0, 32])[0], [20, 24, 28, 32])
        np.testing.assert_allclose(interpolate_missing([20, 0, 0, 32]), [20, 24, 28, 32])

    def test_edge_extension(self):
        np.testing.assert_allclose(clean_row([0, 0, 30, 30])[0], [30, 30, 30, 30])

    def test_no_zeros_unchanged(self):
        row = [25.0, 30.0, 35.0]
        np.testing.assert_array_equal(clean_row(row)[0], row)

    def test_all_zero_untouched(self):
        np.testing.assert_array_equal(clean_row([0.0, 0.0])[0], [0.0, 0.0])
        assert clean_rows([[0.0, 0.0]]).flagged_road_ids == [0]

    @given(st.lists(st.sampled_from([0.0, 10.0, 20.0, 30.0]), min_size=2, max_size=96))
    @settings(max_examples=50, deadline=None)
    def test_no_zeros_remain(self, row):
        filled = clean_row(row)[0]
        if any(v != 0 for v in row):
            assert np.all(filled > 0.0)


class TestRepairAnomalies:
    def test_neighbor_mean(self):
        repaired, n = clean_row([40, 200, 44], 70)
        np.testing.assert_allclose(repaired, [40, 42, 44])
        assert n == 1
        np.testing.assert_allclose(repair_anomalies([40, 200, 44], 70)[0], [40, 42, 44])

    def test_edge_single_neighbor(self):
        repaired, n = clean_row([200, 40, 44], 70)
        np.testing.assert_allclose(repaired, [40, 40, 44])
        assert n == 1

    def test_no_anomalies(self):
        repaired, n = clean_row([40, 50, 60], 70)
        np.testing.assert_allclose(repaired, [40, 50, 60])
        assert n == 0

    def test_all_anomalous_clamped(self, caplog):
        repaired, n = clean_row([100, 200], 70)
        np.testing.assert_allclose(repaired, [70, 70])
        assert n == 2
        assert "1 roads entirely anomalous" in caplog.text

    def test_consecutive_anomalies_no_cascade(self):
        repaired, n = clean_row([40, 200, 300, 60], 70)
        np.testing.assert_allclose(repaired, [40, 50, 50, 60])
        assert n == 2


class TestCleanEqualsRowOracle:
    """The whole-grid clean against ``clean_by_rows``, bit for bit."""

    @pytest.mark.parametrize("rows, want", [
        ([[30, 0, 0], [0, 0, 40]], [[30, 30, 30], [40, 40, 40]]),  # a gap run over a row end
        ([[0, 20, 0, 32, 0]], [[20, 20, 26, 32, 32]]),  # leading and trailing gaps
        ([[0, 0, 0], [10, 0, 20], [0, 0, 0]], [[0, 0, 0], [10, 15, 20], [0, 0, 0]]),
        ([[200, 40, 50, 300], [90, 10, 20, 30]], [[40, 40, 50, 50], [10, 10, 20, 30]]),
        ([[40, 200, 300], [300, 200, 60]], [[40, 40, 40], [60, 60, 60]]),  # runs over a row end
        ([[100, 200, 300], [40, 0, 80]], [[70, 70, 70], [40, 60, 60]]),  # all anomalous
        ([[0], [30], [200]], [[0], [30], [70]]),  # one interval
    ], ids=["gap-over-row-end", "gap-at-ends", "all-zero-rows", "anomaly-at-ends",
            "anomaly-runs", "all-anomalous", "one-column"])
    def test_picked(self, rows, want):
        np.testing.assert_array_equal(clean_rows(rows).speeds.values, want)

    def test_non_finite_and_negative(self):
        values = clean_rows([[np.inf, 0, 30], [np.nan, 0, -5], [-np.inf, 0, np.inf],
                             [0, np.nan, 0]]).speeds.values
        assert values[0, 0] == 30.0  # inf is an anomaly
        assert np.isnan(values[1, 1]) and np.isnan(values[3]).all()

    def test_no_interval(self):
        report = clean_rows(np.zeros((3, 0)))
        assert report.speeds.values.shape == (3, 0)
        assert report.flagged_road_ids == [0, 1, 2]

    @pytest.mark.parametrize("seed", range(40))
    def test_random(self, seed):
        rng = np.random.default_rng(seed)
        rows = odd_grid(rng, int(rng.integers(1, 40)), int(rng.integers(1, 300)))
        clean_rows(rows, float(rng.choice([0.2, 0.5, 1.0])))


class TestCleanMemory:
    def test_traced_peak(self):
        """The result plus temporaries that scale with the gaps and the
        anomalies; a grid-sized temporary would break the bound."""
        v = sparse_anomalous_grid()
        axis = full_interval_axis(DAY, DAY + datetime.timedelta(days=13))
        matrix = SpatioTemporalMatrix(list(range(len(v))), axis, v)
        assert traced_peak(clean_speed_matrix, matrix) <= 1.25 * v.nbytes


class TestCleanSpeedMatrix:
    def test_post_conditions(self):
        rng = np.random.default_rng(8)
        rows = rng.uniform(10, 60, (30, 96))
        rows[rng.random(rows.shape) < 0.1] = 0.0
        rows[0, :40] = 0.0  # force a drop
        rows[5, 17] = 120.0  # anomaly
        axis = full_interval_axis(DAY, DAY)
        matrix = SpatioTemporalMatrix(list(range(30)), axis, rows)
        report = clean_speed_matrix(matrix, 0.2, 70.0)
        assert 0 in report.dropped_road_ids
        assert report.anomaly_count >= 1
        values = report.speeds.values
        assert np.all(values > 0.0)
        assert np.all(values <= 70.0)

    @pytest.mark.parametrize("n_intervals", [96, 0])
    def test_input_left_unchanged(self, n_intervals):
        rng = np.random.default_rng(9)
        rows = rng.uniform(10, 60, (4, n_intervals))
        rows[rng.random(rows.shape) < 0.1] = 0.0
        rows[:, :2] = 120.0  # anomalies to repair
        before = rows.copy()
        axis = full_interval_axis(DAY, DAY)[:n_intervals]
        report = clean_speed_matrix(SpatioTemporalMatrix(list(range(4)), axis, rows), 0.2, 70.0)
        np.testing.assert_array_equal(rows, before)
        assert report.speeds.values is not rows
        if n_intervals:
            assert report.anomaly_count > 0
