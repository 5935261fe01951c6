"""End-to-end acceptance gate.

Each test covers one release criterion at its stated tolerance and prints
a single pass/fail line (visible with ``pytest -s`` or on failure).
"""

import contextlib
import datetime
import resource
import shutil
import time

import numpy as np
import pytest

from tracepattern import export as ex
from tracepattern import geo
from tracepattern.congestion import fitting_index, min_max_normalize
from tracepattern.ingest import ParserConfig
from tracepattern.matching import apply_offset, estimate_offset, match_batch
from tracepattern.network import load_network
from tracepattern.patterns import (SpatioTemporalMatrix, clean_speed_matrix,
                                   filter_missing, full_interval_axis)
from tracepattern.pipeline import RunConfig, run_pipeline
from tracepattern.synth import (Scenario, compare, generate, inject_anomalies,
                                uniform_profile, write_scenario)

from conftest import build_tensors, inrix_score, network_inrix, parse_all


@contextlib.contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({name}): FAIL", flush=True)
        raise
    print(f"criterion {num} ({name}): PASS", flush=True)


def match_all(trace_csv, net, chunk_size=10_000):
    records, _ = parse_all(trace_csv, ParserConfig(chunk_size=chunk_size))
    matched, unmatched = match_batch(records, net)
    return records, matched, unmatched


class TestAcceptance:
    def test_1_formula_conformance(self):
        with criterion(1, "formula conformance"):
            start = time.perf_counter()
            # congestion score branches
            assert inrix_score(60, 30) == 1.0
            assert inrix_score(60, 70) == 0.0
            assert inrix_score(55, 55) == 0.0
            # great-circle distance landmarks
            assert geo.haversine(90, 0, 0, 0) == pytest.approx(10018.754, abs=1e-3)
            assert geo.haversine(30.65, 104.06, 30.66, 104.06) == \
                pytest.approx(1.1132, abs=5e-4)
            # ... and against a 50-digit-precision oracle on 1000 random pairs
            import mpmath as mp
            mp.mp.dps = 50
            rng = np.random.default_rng(42)
            for _ in range(1000):
                lat1, lat2 = rng.uniform(-85, 85, 2)
                lon1, lon2 = rng.uniform(-180, 180, 2)
                got = geo.haversine(lat1, lon1, lat2, lon2)
                p1, p2 = mp.mpf(lat1) * mp.pi / 180, mp.mpf(lat2) * mp.pi / 180
                dl = (mp.mpf(lon2) - mp.mpf(lon1)) * mp.pi / 180
                num = mp.sqrt((mp.cos(p2) * mp.sin(dl)) ** 2 +
                              (mp.cos(p1) * mp.sin(p2) -
                               mp.sin(p1) * mp.cos(p2) * mp.cos(dl)) ** 2)
                den = mp.sin(p1) * mp.sin(p2) + mp.cos(p1) * mp.cos(p2) * mp.cos(dl)
                expected = float(mp.mpf("6378.137") * mp.atan2(num, den))
                assert got == pytest.approx(expected, rel=1e-6, abs=1e-9)
            # normalization
            out, _ = min_max_normalize([2, 4, 6])
            np.testing.assert_allclose(out, [0, 0.5, 1])
            # dispersion statistic
            base = np.sin(np.linspace(0, 2 * np.pi, 96)) + 2
            assert fitting_index(np.stack([base, base])).value == 1.0
            shifted = np.stack([base * f for f in (0.72, 0.9, 1.0, 1.12, 1.3)])
            assert 0.52 <= fitting_index(shifted).value <= 0.75
            clustered = np.stack([base + np.random.default_rng(2).normal(0, 0.02, 96)
                                  for _ in range(5)])
            assert fitting_index(clustered).value > 0.9
            # length-weighted network mean
            assert network_inrix([1.0, 0.0], [1.0, 3.0]) == 0.25
            assert network_inrix([0.3, 0.3], [2.0, 5.0]) == pytest.approx(0.3)
            assert time.perf_counter() - start < 1.0

    def test_2_oracle_equivalence(self):
        with criterion(2, "matrix oracle equivalence"):
            start = time.perf_counter()
            profile = [2] * 96
            for s in range(8):
                profile[s] = 3  # 200 orders total
            scenario = Scenario(seed=31, grid_rows=9, grid_cols=9,
                                demand_profile=tuple(profile), n_days=1)
            gen = generate(scenario)
            assert gen.truth.n_orders == 200
            net = load_network(gen.network_doc)
            _, matched, unmatched = match_all(gen.trace_csv, net)
            assert unmatched == 0
            flow, speed = build_tensors([matched], net.ordered_ids())
            assert compare(flow, gen.truth.flow).exact
            assert compare(speed, gen.truth.speed).max_rel <= 0.02
            assert time.perf_counter() - start < 10.0

    def test_3_offset_recovery(self):
        with criterion(3, "offset recovery"):
            for shift in ((0.002, -0.002), (-0.002, 0.002)):
                scenario = Scenario(seed=32, demand_profile=uniform_profile(2),
                                    injected_offset=shift)
                gen = generate(scenario)
                net = load_network(gen.network_doc)
                records, _ = parse_all(gen.trace_csv)
                off = estimate_offset(records[:1000], net)
                assert off.dlat == pytest.approx(-shift[0], rel=0.1)
                assert off.dlon == pytest.approx(-shift[1], rel=0.1)
                corrected, skipped = apply_offset(records, off)
                assert skipped == 0
                matched, unmatched = match_batch(corrected, net)
                assert unmatched == 0 and len(matched) == len(records)

    def test_4_chunk_invariance(self):
        with criterion(4, "chunk invariance"):
            scenario = Scenario(seed=33, demand_profile=uniform_profile(70))
            gen = generate(scenario)
            assert gen.truth.n_pings >= 100_000
            net = load_network(gen.network_doc)
            _, matched, _ = match_all(gen.trace_csv, net)
            reference = None
            for size in (1, 7, 10_000, len(matched)):
                batches = [matched[i:i + size] for i in range(0, len(matched), size)]
                flow, speed = build_tensors(batches, net.ordered_ids())
                if reference is None:
                    reference = (flow, speed)
                else:
                    assert flow.same_axes(reference[0])
                    assert np.array_equal(flow.values, reference[0].values)
                    assert speed.values.tobytes() == reference[1].values.tobytes()

    def test_5_cleaning_conformance(self):
        with criterion(5, "cleaning conformance"):
            rng = np.random.default_rng(34)
            axis = full_interval_axis(datetime.date(2016, 10, 1),
                                      datetime.date(2016, 10, 5))
            # roads with varied missing fractions, compared to a direct count
            values = rng.uniform(10, 60, (30, len(axis)))
            for i in range(30):
                n_zero = int(rng.integers(0, len(axis)))
                cols = rng.choice(len(axis), size=n_zero, replace=False)
                values[i, cols] = 0.0
            matrix = SpatioTemporalMatrix(list(range(30)), axis, values)
            kept, dropped = filter_missing(matrix, 0.2)
            expected_drop = [i for i in range(30)
                             if (values[i] == 0.0).mean() > 0.2]
            assert dropped == expected_drop
            assert kept.road_ids == [i for i in range(30) if i not in expected_drop]

            # 0.05% injected anomalies on a dense matrix are all detected
            dense = SpatioTemporalMatrix(list(range(30)), axis,
                                         rng.uniform(20, 60, (30, len(axis))))
            injected, n_injected, _ = inject_anomalies(dense, rate=0.0005, seed=35)
            assert n_injected == round(0.0005 * dense.values.size) > 0
            report = clean_speed_matrix(injected, 0.2, 70.0)
            assert report.anomaly_count == n_injected
            assert np.all(report.speeds.values > 0.0)
            assert np.all(report.speeds.values <= 70.0)

    def test_6_hierarchy_removal(self):
        with criterion(6, "hierarchy removal"):
            base = np.sin(np.linspace(0, 2 * np.pi, 96)) * 8 + 20
            days = np.stack([base * f for f in (0.7, 0.85, 1.0, 1.2, 1.45)])
            assert fitting_index(days).value < 1.0
            norm = np.stack([min_max_normalize(d)[0] for d in days])
            assert fitting_index(norm).value == pytest.approx(1.0, abs=1e-9)

    def test_7_throughput(self, tmp_path):
        with criterion(7, "throughput and memory"):
            scenario = Scenario(seed=36, grid_rows=11, grid_cols=11,
                                demand_profile=uniform_profile(680))
            gen = generate(scenario)
            assert gen.truth.n_pings >= 1_000_000
            net_path, trace_path = write_scenario(gen, str(tmp_path / "data"))
            config = RunConfig(traces_path=trace_path, network_path=net_path,
                               out_dir=str(tmp_path / "out"))
            start = time.perf_counter()
            manifest = run_pipeline(config)
            elapsed = time.perf_counter() - start
            assert manifest["counts"]["matched"] == gen.truth.n_pings
            assert elapsed <= 60.0, f"pipeline took {elapsed:.1f} s"
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            assert peak_kb <= 1024 ** 2, f"peak RSS {peak_kb / 1024:.0f} MB"

    def test_8_determinism(self, tmp_path):
        with criterion(8, "end-to-end determinism"):
            scenario = Scenario(seed=37, grid_rows=3, grid_cols=3,
                                demand_profile=uniform_profile(24), n_days=2)
            gen = generate(scenario)
            net_path, trace_path = write_scenario(gen, str(tmp_path / "data"))
            out_dir = tmp_path / "out"
            config = RunConfig(traces_path=trace_path, network_path=net_path,
                               out_dir=str(out_dir))
            run_pipeline(config)
            first = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
            assert "manifest.json" in first and len(first) > 1
            shutil.rmtree(out_dir)
            run_pipeline(config)
            second = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
            assert first == second
