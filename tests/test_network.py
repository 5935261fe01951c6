import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracepattern import geo
from tracepattern.errors import NetworkError
from tracepattern.network import (RoadNetwork, SpatialIndex, load_network,
                                  nearest_segment, nearest_segment_scan,
                                  point_to_segment_distance)

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
positions = st.lists(numbers, min_size=0, max_size=4)
features = json_values | st.fixed_dictionaries({}, optional={
    "properties": json_values | st.fixed_dictionaries({}, optional={
        "id": json_values | st.integers(0, 3),
        "free_flow_kmh": json_values | numbers}),
    "geometry": json_values | st.fixed_dictionaries({}, optional={
        "coordinates": json_values | st.lists(positions | json_values, max_size=4)}),
})
json_documents = json_values | st.fixed_dictionaries(
    {"features": json_values | st.lists(features, max_size=4)})


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
    ])
    def test_malformed_feature_is_network_error(self, feature, message):
        with pytest.raises(NetworkError, match=message):
            load_network(doc([feature]))

    @given(document=json_documents)
    @settings(max_examples=200, deadline=None)
    def test_only_network_error_escapes(self, document, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "fuzz.geojson"
        path.write_text(json.dumps(document))
        try:
            load_network(str(path))
        except NetworkError:
            pass

    def test_bbox_covers_vertices(self):
        net = load_network(doc([line(1, [[104.0, 30.0], [104.5, 30.2]])]))
        assert net.bbox == (30.0, 104.0, 30.2, 104.5)


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


class TestNearestSegment:
    def test_gated_hit(self):
        # segment 7 ~10 m away, everything else ~200 m away
        feats = [line(7, [[104.0, 30.0], [104.0, 30.01]])]
        feats += [line(i, [[104.002, 30.0 + 0.01 * i], [104.002, 30.01 + 0.01 * i]])
                  for i in range(3)]
        net = load_network(doc(feats))
        hit = nearest_segment(30.005, 104.0001, net, max_dist_km=0.05)
        assert hit is not None and hit[0] == 7
        assert hit[1] == pytest.approx(0.0096, abs=1e-3)

    def test_gate_excludes(self):
        net = load_network(doc([line(1, [[104.0, 30.0], [104.0, 30.01]])]))
        assert nearest_segment(30.005, 104.001, net, max_dist_km=0.05) is None

    def test_tie_lowest_id(self):
        # exactly representable coordinates so both distances are bit-equal
        net = load_network(doc([line(5, [[1.0, 0.0], [1.0, 1.0]]),
                                line(3, [[-1.0, 0.0], [-1.0, 1.0]])]))
        hit = nearest_segment(0.5, 0.0, net, max_dist_km=200.0)
        assert hit[0] == 3

    def test_empty_network(self):
        net = RoadNetwork({}, (0, 0, 0, 0))
        assert nearest_segment(30.0, 104.0, net) is None
        assert net.index.nearest(30.0, 104.0, None) is None

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_index_equals_linear_scan(self, seed):
        rng = np.random.default_rng(seed)
        net = random_network(rng, int(rng.integers(1, 15)))
        for _ in range(10):
            lat = 30.65 + rng.uniform(-0.04, 0.04)
            lon = 104.06 + rng.uniform(-0.04, 0.04)
            for gate in (None, 0.05, 0.5):
                expected = nearest_segment_scan(lat, lon, net, gate)
                got = net.index.nearest(lat, lon, gate)
                if expected is None:
                    assert got is None
                else:
                    assert got is not None
                    assert got[0] == expected[0]
                    assert got[1] == expected[1]

    def test_batch_equals_scalar(self):
        rng = np.random.default_rng(7)
        net = random_network(rng, 12)
        lats = 30.65 + rng.uniform(-0.04, 0.04, 200)
        lons = 104.06 + rng.uniform(-0.04, 0.04, 200)
        ids, dists = net.index.nearest_batch(lats, lons, 0.1)
        for lat, lon, sid, dist in zip(lats, lons, ids, dists):
            expected = net.index.nearest(lat, lon, 0.1)
            if expected is None:
                assert sid == -1
            else:
                assert sid == expected[0] and dist == expected[1]


def test_index_immutable_after_build(small_net):
    idx1 = small_net.index
    assert small_net.index is idx1  # cached, rebuilt never
    assert isinstance(idx1, SpatialIndex)
