import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tracepattern import geo, network
from tracepattern.errors import NetworkError
from tracepattern.matching import _OFFSET_GATE_KM
from tracepattern.network import (_BLOCK, _CELL_DEG, DEFAULT_MAX_DIST_KM, RoadNetwork,
                                  SpatialIndex, load_network)

from conftest import load_network_by_features, point_to_segment_distance

MERIDIAN_KM_PER_DEG = math.pi / 180.0 * 6378.137  # 111.3194...


def doc(features):
    return {"type": "FeatureCollection", "features": features}


def line(seg_id, coords, **props):
    return {"type": "Feature",
            "properties": {"id": seg_id, **props},
            "geometry": {"type": "LineString", "coordinates": coords}}


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner,
                                                                 max_size=4),
    max_leaves=12)
numbers = st.integers(-200, 200) | st.floats() | st.sampled_from(["nan", "30.5", "x"])
# [lon, lat], out of range by at most a degree
lon_lat = st.tuples(st.integers(-181, 181) | st.floats(-181, 181),
                    st.integers(-91, 91) | st.floats(-91, 91)).map(list)
positions = (lon_lat | st.lists(numbers, min_size=0, max_size=4)
             | st.sampled_from(["12", "12.5", "1234"]))
features = json_values | st.fixed_dictionaries({}, optional={
    "properties": json_values | st.fixed_dictionaries({}, optional={
        "id": json_values | st.integers(0, 3),
        "free_flow_kmh": json_values | numbers}),
    "geometry": json_values | st.fixed_dictionaries({}, optional={
        "type": st.sampled_from(["LineString", "MultiLineString", "Point"]),
        "coordinates": json_values | st.lists(positions | json_values, max_size=4)}),
})
# features that pass the id and LineString checks, so that their
# positions reach the position checks
roads = st.fixed_dictionaries({
    "properties": st.fixed_dictionaries({"id": st.integers(0, 3)}, optional={
        "free_flow_kmh": st.integers(1, 120) | numbers}),
    "geometry": st.fixed_dictionaries({"type": st.just("LineString"), "coordinates": (
        st.lists(lon_lat, min_size=2, max_size=4) | st.lists(positions, max_size=4))}),
})
json_documents = json_values | st.fixed_dictionaries(
    {"features": json_values | st.lists(features | roads, max_size=4)}) | st.fixed_dictionaries(
    {"features": st.lists(roads, min_size=1, max_size=4, unique_by=lambda f: f["properties"]["id"])})


def number_positions(value):
    """(lat, lon) of every in-range [lon, lat(, alt)] array of numbers in a
    JSON value: the only places a loaded vertex may come from."""
    if isinstance(value, dict):
        value = list(value.values())
    if not isinstance(value, list):
        return set()
    found = set().union(*map(number_positions, value))
    if (len(value) in (2, 3) and all(type(c) in (int, float) for c in value)
            and abs(value[0]) <= 180 and abs(value[1]) <= 90):
        found.add((float(value[1]), float(value[0])))
    return found


class TestLoadNetwork:
    def test_meridian_segment_length(self):
        net = load_network(doc([line(1, [[104.0, 30.0], [104.0, 30.01]])]))
        expected = 0.01 * MERIDIAN_KM_PER_DEG  # ~1.1132 km
        assert net.segments[1].length_km == pytest.approx(expected, rel=1e-9)
        assert net.segments[1].length_km == pytest.approx(1.1132, abs=5e-4)

    def test_single_vertex_skipped(self):
        net = load_network(doc([line(1, [[104.0, 30.0]]),
                                line(2, [[104.0, 30.0], [104.0, 30.01]])]))
        assert 1 not in net.segments and 2 in net.segments
        assert net.skipped_features == 1

    def test_duplicate_id_fatal(self):
        with pytest.raises(NetworkError):
            load_network(doc([line(1, [[0, 0], [0, 1]]), line(1, [[1, 0], [1, 1]])]))

    @pytest.mark.parametrize("first", [
        line(1, [[0, 0]]), line(1, [[0, 1], [0, 1]]), {"properties": {"id": 1}, "geometry": None},
    ], ids=["one-vertex", "zero-length", "null-geometry"])
    def test_skipped_feature_id_counts_against_duplicates(self, first):
        with pytest.raises(NetworkError, match="duplicate segment id 1"):
            load_network(doc([first, line(1, [[1, 0], [1, 1]])]))

    def test_free_flow_checked_before_the_zero_length_skip(self):
        with pytest.raises(NetworkError, match="segment 1: free_flow_kmh 'x'"):
            load_network(doc([line(1, [[0, 1], [0, 1]], free_flow_kmh="x")]))
        net = load_network(doc([line(1, [[0, 1], [0, 1]], free_flow_kmh=40)]))
        assert net.segments == {} and net.skipped_features == 1

    def test_free_flow_attribute(self):
        net = load_network(doc([line(1, [[0, 0], [0, 1]], free_flow_kmh=55)]))
        assert net.segments[1].free_flow_kmh == 55.0

    def test_length_matches_haversine_sum(self):
        coords = [[104.0, 30.0], [104.01, 30.0], [104.01, 30.02]]
        net = load_network(doc([line(7, coords)]))
        total = sum(geo.haversine(a[1], a[0], b[1], b[0])
                    for a, b in zip(coords, coords[1:]))
        assert net.segments[7].length_km == pytest.approx(total, rel=1e-9)

    def test_non_integer_id_is_network_error(self):
        with pytest.raises(NetworkError, match="'r7'"):
            load_network(doc([line("r7", [[104.0, 30.0], [104.0, 30.01]])]))

    def test_altitude_accepted_and_ignored(self):
        flat = load_network(doc([line(1, [[104.0, 30.0], [104.0, 30.01]])]))
        net = load_network(doc([line(1, [[104.0, 30.0, 512.0], [104.0, 30.01, 498.5]])]))
        assert net.segments[1] == flat.segments[1]

    def test_features_not_an_array_is_network_error(self):
        with pytest.raises(NetworkError):
            load_network({"type": "FeatureCollection", "features": 3})

    def test_malformed_json_is_network_error(self, tmp_path):
        path = tmp_path / "roads.geojson"
        path.write_text('{"type": "FeatureCollection", "features": [')
        with pytest.raises(NetworkError):
            load_network(str(path))

    def test_non_utf8_document_is_network_error(self, tmp_path):
        path = tmp_path / "roads.geojson"
        path.write_bytes(b'{"type": "FeatureCollection", "name": "\xff", "features": []}')
        with pytest.raises(NetworkError):
            load_network(str(path))

    @pytest.mark.parametrize("feature, message", [
        ("road", "feature #0"),
        ({"properties": "valid", "geometry": None}, "feature #0"),
        ({**line(4, []), "geometry": "LineString"}, "segment 4"),
        (line(4, 5), "segment 4"),
        (line(4, [[104.0, 30.0], [104.0, 30.01]], free_flow_kmh="fast"), "segment 4"),
        (line(4, [[104.0, 30.0], [104.0, 30.01]], free_flow_kmh=math.nan), "segment 4"),
        (line(4, [[104.0, "nan"], [104.0, 30.01]]), "segment 4"),
        (line(4, [[104.0, math.nan], [104.0, 30.01]]), "segment 4"),
        (line(math.inf, [[104.0, 30.0], [104.0, 30.01]]), "inf"),
        (line(1.7, [[104.0, 30.0], [104.0, 30.01]]), "1.7"),
        (line(10**30, [[104.0, 30.0], [104.0, 30.01]]), "int64"),
        (line(4, ["12", "34"]), "segment 4"),
        (line(4, [[104.0, 30.0, 0.0, 1.0], [104.0, 30.01]]), "segment 4"),
        (line(4, [[104.0, True], [104.0, 30.01]]), "segment 4"),
        (line(True, [[104.0, 30.0], [104.0, 30.01]]), "feature id True"),
        (line(4, [[104.0, 30.0], [104.0, 30.01]], free_flow_kmh=True), "free_flow_kmh True"),
        (line(4, [[104.0, 30.0], [104.0, 30.01]], free_flow_kmh=10**400), "segment 4"),
        *(({**line(4, []), "geometry": g}, "segment 4: geometry is not an object")
          for g in (0, "", False, [])),
        *((line(4, c), "segment 4: coordinates are not an array") for c in (0, "", False, {})),
        # a string is no id, not even one that int() parses
        *((line(raw, [[104.0, 30.0], [104.0, 30.01]]), f"^feature id {raw!r} is not an integer")
          for raw in ("7", " 8 ", "9_0", "\u0663")),
        # a road is a LineString: no other geometry type is read as one
        *(({**line(4, []), "geometry": g}, f"^segment 4: geometry type {t!r} is not 'LineString'$")
          for t, g in (
              ("MultiLineString", {"type": "MultiLineString",
                                   "coordinates": [[[104.0, 30.0], [104.0, 30.01]]]}),
              ("Point", {"type": "Point", "coordinates": [[104.0, 30.0], [104.0, 30.01]]}),
              (None, {"coordinates": [[104.0, 30.0], [104.0, 30.01]]}),
              (None, {}))),
    ])
    def test_malformed_feature_is_network_error(self, feature, message):
        with pytest.raises(NetworkError, match=message):
            load_network(doc([feature]))

    @given(document=json_documents)
    @example(document=doc([line(1, ["12", "34"])]))
    @settings(max_examples=200, deadline=None)
    def test_only_network_error_escapes(self, document, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "fuzz.geojson"
        path.write_text(json.dumps(document))
        try:
            net = load_network(str(path))
        except NetworkError:
            return
        vertices = {v for seg in net.segments.values() for v in seg.polyline}
        assert vertices <= number_positions(document)

    @given(document=json_documents)
    @example(document=doc([line(1, [[0, 1], [0, 1]], free_flow_kmh="x")]))
    @example(document=doc([line(1, [[0, 1], [0, 1]]), line(1, [[0, 1], [0, 2]])]))
    # a bad position comes before a later feature's error and its own free flow's
    @example(document=doc([line(1, [[0, 1], ["1", 2]]), line(1, [[0, 1], [0, 2]])]))
    @example(document=doc([line(1, [[0, 1], [0, 100]], free_flow_kmh="x")]))
    @example(document=doc([line(1, [[0, 1], [0, 2]], free_flow_kmh=-1),
                           line(2, [[True, 1], [0, 2]])]))
    # positions the array check leaves to _vertex: an altitude beyond the
    # float range, widths 2 and 3 mixed, a longitude beyond it
    @example(document=doc([line(1, [[0, 1, 10 ** 400], [0, 2, 0]])]))
    @example(document=doc([line(1, [[0, 1, 5], [0, 2]]), line(2, [[0, 1], [1, 1]])]))
    @example(document=doc([line(1, [[0, 1], [-10 ** 400, 2]])]))
    @settings(max_examples=300, deadline=None)
    def test_equals_feature_oracle(self, document, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "oracle.geojson"
        path.write_text(json.dumps(document))
        assert_same_load(str(path), json.loads(path.read_text()))

    @pytest.mark.parametrize("seed", range(4))
    def test_long_polylines_equal_feature_oracle(self, seed):
        # 2-400 vertices per road, [lon, lat] and [lon, lat, alt] mixed,
        # some roads of one repeated point
        rng = np.random.default_rng(seed)
        feats = []
        for i in rng.permutation(300).tolist():
            n = int(rng.integers(2, 401))
            lon = (rng.uniform(-179, 179) + np.cumsum(rng.uniform(-1e-3, 1e-3, n))).tolist()
            lat = (rng.uniform(-89, 89) + np.cumsum(rng.uniform(-1e-3, 1e-3, n))).tolist()
            if rng.random() < 0.05:
                lon, lat = [lon[0]] * n, [lat[0]] * n
            alt = rng.uniform(0, 900, n).tolist()
            coords = [[x, y, z] if rng.random() < 0.5 else [x, y]
                      for x, y, z in zip(lon, lat, alt)]
            feats.append(line(i, coords, free_flow_kmh=float(rng.uniform(20, 80))))
        want = assert_same_load(doc(feats), doc(feats))
        assert want.skipped_features > 0 and len(want.segments) > 250

    def test_one_haversine_call(self, monkeypatch):
        calls = []
        haversine = geo.haversine
        monkeypatch.setattr(geo, "haversine", lambda *a: calls.append(1) or haversine(*a))
        coords = [[104.0 + 1e-3 * k, 30.0 + 2e-3 * (k % 3)] for k in range(5)]
        net = load_network(doc([line(i, coords[:2 + i % 4]) for i in range(1000)]))
        assert len(net.segments) == 1000 and len(calls) == 1


def assert_same_load(source, document):
    """``load_network(source)`` equals ``load_network_by_features(document)``,
    lengths bit for bit and roads in the same order, or both raise the same
    NetworkError; returns the network."""
    try:
        want = load_network_by_features(document)
    except NetworkError as exc:
        with pytest.raises(NetworkError) as got:
            load_network(source)
        assert str(got.value) == str(exc)
        return None
    got = load_network(source)
    assert got == want
    assert list(got.segments) == list(want.segments)
    assert ([s.length_km.hex() for s in got.segments.values()]
            == [s.length_km.hex() for s in want.segments.values()])
    return want


class TestPointToSegmentDistance:
    def test_point_on_vertex(self):
        net = load_network(doc([line(1, [[104.0, 30.0], [104.0, 30.01]])]))
        assert point_to_segment_distance(30.01, 104.0, net.segments[1]) == 0.0

    def test_equatorial_offset(self):
        # north-south segment on the prime meridian, point 0.001 deg east
        net = load_network(doc([line(1, [[0.0, -0.01], [0.0, 0.01]])]))
        expected = 0.001 * MERIDIAN_KM_PER_DEG  # ~0.1113 km at the equator
        assert point_to_segment_distance(0.0, 0.001, net.segments[1]) == \
            pytest.approx(expected, rel=1e-6)

    def test_beyond_endpoint_brute_force(self):
        coords = [[104.0, 30.0], [104.003, 30.002], [104.006, 30.001]]
        net = load_network(doc([line(1, coords)]))
        p = (30.006, 104.009)  # beyond the last vertex
        got = point_to_segment_distance(*p, net.segments[1])
        # oracle: dense sampling of the polyline at ~0.1 m spacing
        best = np.inf
        for (alon, alat), (blon, blat) in zip(coords, coords[1:]):
            steps = max(2, int(geo.haversine(alat, alon, blat, blon) * 10_000))
            f = np.linspace(0.0, 1.0, steps)
            d = geo.haversine(p[0], p[1], alat + f * (blat - alat), alon + f * (blon - alon))
            best = min(best, float(np.min(d)))
        assert got == pytest.approx(best, abs=2e-4)

    @pytest.mark.parametrize("shape", [(), (1,), (3,), (2, 3)])
    def test_shapes_broadcast(self, shape):
        # a point west of a sub-segment along the equator: scalars give
        # scalars, arrays their broadcast shape, all with the same bits
        want, _ = geo.min_dist_to_subsegments([0.001], [-0.001], [0.0], [0.0], [0.0], [0.001])
        lat = np.full(shape, 0.001)[()]
        d, t = geo.min_dist_to_subsegments(lat, -0.001, 0.0, 0.0, 0.0, 0.001)
        assert np.shape(d) == np.shape(t) == shape and type(d) is type(t)
        assert isinstance(d, np.float64 if shape == () else np.ndarray)
        assert (d == want[0]).all() and (t == 0.0).all() and want[0] > 0.15

    def test_bounded_by_vertex_distance(self):
        coords = [[104.0, 30.0], [104.003, 30.002], [104.006, 30.001]]
        net = load_network(doc([line(1, coords)]))
        p = (30.01, 104.002)
        d = point_to_segment_distance(*p, net.segments[1])
        for lon, lat in coords:
            assert d <= geo.haversine(p[0], p[1], lat, lon) + 1e-12


def random_network(rng, n_segs, center=(30.65, 104.06), spread=0.03):
    feats = []
    for i in range(n_segs):
        n_verts = int(rng.integers(2, 5))
        lat0 = center[0] + rng.uniform(-spread, spread)
        lon0 = center[1] + rng.uniform(-spread, spread)
        steps = rng.uniform(-0.004, 0.004, size=(n_verts - 1, 2))
        pts = np.vstack([[lat0, lon0], [lat0, lon0] + np.cumsum(steps, axis=0)])
        feats.append(line(i, [[p[1], p[0]] for p in pts]))
    return load_network(doc(feats))


def nearest_segment_scan(lat, lon, net: RoadNetwork, max_dist_km=None):
    """Exhaustive nearest-segment scan; ties broken by lowest id.

    Reference implementation used as the oracle for the spatial index.
    """
    best = None
    for seg_id in net.ordered_ids():
        d = point_to_segment_distance(lat, lon, net.segments[seg_id])
        if best is None or d < best[1]:
            best = (seg_id, d)
    if best is None:
        return None
    if max_dist_km is not None and best[1] > max_dist_km:
        return None
    return best


def nearest(net, lat, lon, max_dist_km=DEFAULT_MAX_DIST_KM):
    """One-point query of the index: (seg_id, dist_km, c_lat, c_lon) or None,
    the closest point a + t * (b - a) on the sub-segment the query returns."""
    index = net.index
    ids, dists, sub, t = index.nearest_batch([lat], [lon], max_dist_km)
    if ids[0] < 0:
        assert dists[0] == np.inf and sub[0] == -1 and np.isnan(t[0])
        return None
    assert index.seg_ids[sub[0]] == ids[0] and 0.0 <= t[0] <= 1.0
    a_lat, a_lon, b_lat, b_lon = index.ends[:, sub[0]]
    return (int(ids[0]), float(dists[0]), float(a_lat + t[0] * (b_lat - a_lat)),
            float(a_lon + t[0] * (b_lon - a_lon)))


class TestNearestSegment:
    def test_gated_hit(self):
        # segment 7 ~10 m away, everything else ~200 m away
        feats = [line(7, [[104.0, 30.0], [104.0, 30.01]])]
        feats += [line(i, [[104.002, 30.0 + 0.01 * i], [104.002, 30.01 + 0.01 * i]])
                  for i in range(3)]
        net = load_network(doc(feats))
        hit = nearest(net, 30.005, 104.0001, max_dist_km=0.05)
        assert hit is not None and hit[0] == 7
        assert hit[1] == pytest.approx(0.0096, abs=1e-3)

    def test_gate_excludes(self):
        net = load_network(doc([line(1, [[104.0, 30.0], [104.0, 30.01]])]))
        assert nearest(net, 30.005, 104.001, max_dist_km=0.05) is None

    def test_tie_lowest_id(self):
        # exactly representable coordinates so both distances are bit-equal
        net = load_network(doc([line(5, [[1.0, 0.0], [1.0, 1.0]]),
                                line(3, [[-1.0, 0.0], [-1.0, 1.0]])]))
        hit = nearest(net, 0.5, 0.0, max_dist_km=200.0)
        assert hit[0] == 3

    def test_empty_network(self):
        net = RoadNetwork({})
        assert nearest(net, 30.0, 104.0) is None
        assert nearest(net, 30.0, 104.0, _OFFSET_GATE_KM) is None

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_index_equals_linear_scan(self, seed):
        rng = np.random.default_rng(seed)
        net = random_network(rng, int(rng.integers(1, 15)))
        for _ in range(10):
            lat = 30.65 + rng.uniform(-0.04, 0.04)
            lon = 104.06 + rng.uniform(-0.04, 0.04)
            for gate in (_OFFSET_GATE_KM, 0.05, 0.5):
                expected = nearest_segment_scan(lat, lon, net, gate)
                got = nearest(net, lat, lon, gate)
                if expected is None:
                    assert got is None
                else:
                    assert got is not None
                    assert got[0] == expected[0]
                    assert got[1] == expected[1]
                    c_lat, c_lon = got[2:]
                    assert point_to_segment_distance(c_lat, c_lon,
                                                     net.segments[got[0]]) < 1e-9

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batch_grouping_equals_linear_scan(self, seed):
        # one call over many grid cells, several points per cell, points on
        # cell edges, and cells on both sides of lat 0 and lon 0
        rng = np.random.default_rng(seed)
        half = 4 * _CELL_DEG  # the points span 8 x 8 cells
        net = random_network(rng, 20, center=(0.001, -0.002), spread=0.75 * half)
        edges = _CELL_DEG * np.arange(-4, 5)
        lats = np.concatenate([rng.uniform(-half, half, 240),
                               rng.choice(edges, 60), rng.uniform(-half, half, 30),
                               [0.0, -0.0, _CELL_DEG, -_CELL_DEG]])
        lons = np.concatenate([rng.uniform(-half, half, 240),
                               rng.uniform(-half, half, 60), rng.choice(edges, 30),
                               [0.0, -0.0, -_CELL_DEG, _CELL_DEG]])
        perm = rng.permutation(lats.size)
        lats, lons = lats[perm], lons[perm]
        cells = set(zip(np.floor(lats / _CELL_DEG).tolist(), np.floor(lons / _CELL_DEG).tolist()))
        assert len(cells) > 50 and lats.size >= 4 * len(cells)
        for gate in (0.05, 0.5, _OFFSET_GATE_KM):
            ids, dists, _, _ = net.index.nearest_batch(lats, lons, gate)
            for lat, lon, got_id, got_d in zip(lats, lons, ids, dists):
                expected = nearest_segment_scan(lat, lon, net, gate)
                if expected is None:
                    assert got_id == -1 and got_d == np.inf
                else:
                    assert (got_id, got_d) == expected

    def test_slices_equal_linear_scan(self, monkeypatch):
        # a dense network and many points per cell, in blocks of points
        # whose edges fall between points of one cell
        rng = np.random.default_rng(5)
        net = random_network(rng, 120, center=(30.651, 104.061), spread=0.004)
        lats = 30.651 + rng.uniform(-2.5 * _CELL_DEG, 2.5 * _CELL_DEG, 800)
        lons = 104.061 + rng.uniform(-2.5 * _CELL_DEG, 2.5 * _CELL_DEG, 800)
        scans = [nearest_segment_scan(lat, lon, net) for lat, lon in zip(lats, lons)]
        idx = net.index
        for block in (_BLOCK, 61):
            monkeypatch.setattr(network, "_BLOCK", block)
            for gate in (0.05, 0.5, _OFFSET_GATE_KM):
                if block < _BLOCK:
                    assert lats.size > 2 * block  # 3+ blocks
                ids, dists, _, _ = idx.nearest_batch(lats, lons, gate)
                for got_id, got_d, (seg_id, d) in zip(ids, dists, scans):
                    if d > gate:
                        assert got_id == -1 and got_d == np.inf
                    else:
                        assert (got_id, got_d) == (seg_id, d)

    def test_road_at_the_grown_gate_box_of_the_cell(self):
        # a point on the bottom edge of its cell and a road just south of it,
        # as far as it can lie inside the gate: rounding puts the road's box
        # beyond the cell's box grown by the bare gate radius
        gate = 0.05
        r_lat = gate / geo.KM_PER_DEG
        p, q = next(pq for k in itertools.count(int(30.6 / _CELL_DEG))
                    if (pq := at_the_edge(k, gate))[1] + r_lat < k * _CELL_DEG)
        net = load_network(doc([line(1, [[104.0, q], [104.01, q]])]))
        assert nearest_segment_scan(p, 104.0, net, gate) == (1, (p - q) * geo.KM_PER_DEG)
        hit = nearest(net, p, 104.0, gate)
        assert hit is not None and hit[:2] == (1, (p - q) * geo.KM_PER_DEG)
        assert nearest(net, p, 104.0, gate * 0.999) is None

    def test_road_near_the_pole_equals_linear_scan(self):
        # a degree of longitude shrinks toward the pole, so the gate spans
        # more of them at the point than at the road's southern end
        net = load_network(doc([line(1, [[10.0, 89.5], [10.0, 89.99]]),
                                line(2, [[-170.0, 89.7], [-169.9, 89.7]])]))
        lats, lons = (a.ravel() for a in np.meshgrid(np.linspace(89.4, 89.999, 25),
                                                     10.0 + np.geomspace(1e-4, 0.3, 30)))
        for gate in (0.05, 0.5, _OFFSET_GATE_KM):
            ids, dists, _, _ = net.index.nearest_batch(lats, lons, gate)
            assert (ids >= 0).sum() > 100
            for lat, lon, got_id, got_d in zip(lats, lons, ids, dists):
                expected = nearest_segment_scan(lat, lon, net, gate)
                if expected is None:
                    assert got_id == -1 and got_d == np.inf
                else:
                    assert (got_id, got_d) == expected

    @pytest.mark.parametrize("seed", [0, 1])
    def test_cell_candidates_are_the_grown_box_filter(self, seed):
        # the candidates of a cell are exactly the sub-segments whose box,
        # grown by the gate radii, meets the cell's box, each once, ascending
        rng = np.random.default_rng(seed)
        idx = random_network(rng, 40, spread=0.01).index
        ci = np.floor(rng.uniform(30.62, 30.68, 50) / _CELL_DEG).astype(np.int64)
        cj = np.floor(rng.uniform(104.03, 104.09, 50) / _CELL_DEG).astype(np.int64)
        for gate in (0.05, 0.5, _OFFSET_GATE_KM):
            r_lat = gate / geo.KM_PER_DEG
            r_lon = 1.3 * r_lat
            counts, subs = idx._cell_candidates(ci, cj, r_lat, r_lon)
            for i, j, got in zip(ci, cj, np.split(subs, np.cumsum(counts)[:-1])):
                lat0, lon0 = i * _CELL_DEG, j * _CELL_DEG
                meets = ((idx.lat_lo - r_lat <= lat0 + _CELL_DEG) & (idx.lat_hi + r_lat >= lat0)
                         & (idx.lon_lo - r_lon <= lon0 + _CELL_DEG) & (idx.lon_hi + r_lon >= lon0))
                assert got.tolist() == np.flatnonzero(meets).tolist()


GATES = (0.05, 0.5, _OFFSET_GATE_KM)
# (lat, lon) in every memo test's pool: a cell south-west of the origin
# that meets the bundle of memo_network (several candidates at every
# gate), one beside the lone road (one candidate at 0.05 km) and one
# beyond every gate of every road (none)
MEMO_ANCHORS = ((-0.0011, -0.0012), (0.0201, 0.0202), (-0.05, 0.05))


def memo_network(rng):
    """Roads about the origin, so that grid cells have negative ci and cj:
    a bundle of four parallel roads 22 m apart across it, a lone short
    road 2.2 km to the north-east and eight random roads within 1.8 km."""
    feats = [line(k, [[-0.003, -0.0015 + 2e-4 * k], [0.003, -0.0015 + 2e-4 * k]])
             for k in range(4)]
    feats.append(line(10, [[0.02, 0.02], [0.0205, 0.0201]]))
    for k in range(20, 28):
        start = rng.uniform(-0.004, 0.004, 2)
        steps = rng.uniform(-0.004, 0.004, size=(int(rng.integers(1, 4)), 2))
        feats.append(line(k, np.vstack([start, start + np.cumsum(steps, axis=0)]).tolist()))
    return load_network(doc(feats))


def grid_cell(lat, lon):
    """(ci, cj) of a point, and the key nearest_batch's memo sorts the cell by."""
    ci, cj = math.floor(lat / _CELL_DEG), math.floor(lon / _CELL_DEG)
    return (ci << 32) + cj, (ci, cj)


def assert_memo_holds_each_cell_once(idx, queried):
    """Each gate's memo holds the cells ``queried[gate]`` ({key: (ci, cj)}),
    each once, in key order, with the candidates that _cell_candidates
    gives the cell alone."""
    assert set(idx._memo) == set(queried)
    for gate, cells in queried.items():
        keys, start, subs = idx._memo[gate]
        assert keys.tolist() == sorted(cells)
        assert start[0] == 0 and start[-1] == subs.size and (np.diff(start) >= 0).all()
        for k, key in enumerate(keys.tolist()):
            ci, cj = (np.array([v], dtype=np.int64) for v in cells[key])
            _, want = idx._cell_candidates(ci, cj, *idx._radii(gate))
            assert subs[start[k]:start[k + 1]].tolist() == want.tolist()


class TestCandidateMemo:
    @given(seed=st.integers(0, 2**16),
           queries=st.lists(st.tuples(st.sampled_from(GATES),
                                      st.lists(st.integers(0, 23), max_size=12),
                                      st.integers(0, 6)), min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_interleaved_gates_equal_a_fresh_index_and_a_scan(self, seed, queries):
        # one index queried at gates in any order, over point sets that
        # overlap (indices into one pool) or are disjoint (fresh points),
        # then over the whole pool at every gate
        rng = np.random.default_rng(seed)
        net = memo_network(rng)
        pool = np.vstack([MEMO_ANCHORS, rng.uniform(-0.03, 0.03, size=(24 - 3, 2))])
        queries = [(gate, np.vstack([pool[picks].reshape(-1, 2),
                                     rng.uniform(-0.03, 0.03, size=(fresh, 2))]))
                   for gate, picks, fresh in queries]
        queries += [(gate, pool) for gate in GATES]
        idx = net.index
        queried = {}
        for gate, points in queries:
            lats, lons = points[:, 0], points[:, 1]
            got = idx.nearest_batch(lats, lons, gate)
            want = SpatialIndex(net).nearest_batch(lats, lons, gate)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
            for lat, lon, got_id, got_d in zip(lats, lons, *got[:2]):
                expected = nearest_segment_scan(lat, lon, net, gate)
                assert (got_id, got_d) == ((-1, np.inf) if expected is None else expected)
            queried.setdefault(gate, {}).update(grid_cell(lat, lon) for lat, lon in points)
        assert_memo_holds_each_cell_once(idx, queried)

        # the cells the draws must cover: negative ci and cj, no candidate,
        # one candidate and several
        keys, start, _ = idx._memo[0.05]
        count = dict(zip(keys.tolist(), np.diff(start).tolist()))
        several, one, none = (count[grid_cell(*p)[0]] for p in MEMO_ANCHORS)
        assert several >= 4 and one == 1 and none == 0
        assert min(grid_cell(*MEMO_ANCHORS[0])[1]) < 0

    def test_memo_holds_each_cell_once_per_gate(self):
        # each gate queried twice, over overlapping point sets that repeat
        # cells within and across calls
        rng = np.random.default_rng(3)
        net = memo_network(rng)
        points = rng.uniform(-0.01, 0.01, size=(270, 2))
        queried = {}
        for k in range(6):
            gate = GATES[k % 3]
            part = points[20 * k:20 * k + 150]
            net.index.nearest_batch(part[:, 0], part[:, 1], gate)
            queried.setdefault(gate, {}).update(grid_cell(*p) for p in part)
        assert_memo_holds_each_cell_once(net.index, queried)
        assert all(len(cells) < 150 for cells in queried.values())


def at_the_edge(k, gate):
    """(p, q): p the lowest latitude in grid row k, q the lowest latitude
    whose distance to p, on one meridian, is within the gate."""
    p = k * _CELL_DEG
    while math.floor(p / _CELL_DEG) < k:
        p = np.nextafter(p, np.inf)
    while math.floor(np.nextafter(p, -np.inf) / _CELL_DEG) == k:
        p = np.nextafter(p, -np.inf)
    q = p - gate / geo.KM_PER_DEG
    while (p - q) * geo.KM_PER_DEG > gate:
        q = np.nextafter(q, np.inf)
    while (p - np.nextafter(q, -np.inf)) * geo.KM_PER_DEG <= gate:
        q = np.nextafter(q, -np.inf)
    return float(p), float(q)


def test_index_immutable_after_build(small_net):
    idx1 = small_net.index
    assert small_net.index is idx1  # cached, rebuilt never
    assert isinstance(idx1, SpatialIndex)
