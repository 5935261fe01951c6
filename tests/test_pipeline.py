import json
from unittest import mock

import pytest

from tracepattern.pipeline import STAGES, RunConfig, run_pipeline
from tracepattern.synth import Scenario, generate, uniform_profile, write_scenario


def test_outputs_invariant_to_chunk_size(tmp_path):
    """The offset sample spans many chunks at size 7 and part of one at
    10**6; those buffered chunks and the order codes that continue across
    chunk boundaries must not change a single output byte."""
    scenario = Scenario(seed=39, grid_rows=3, grid_cols=3, n_days=1,
                        demand_profile=uniform_profile(4),
                        injected_offset=(0.0004, -0.0003))
    gen = generate(scenario)
    net_path, trace_path = write_scenario(gen, str(tmp_path / "data"))
    assert gen.truth.n_pings > 2 * 1000  # the default offset sample size
    runs = []
    for chunk_size in (7, 1_000, 10 ** 6):
        manifest = run_pipeline(RunConfig(
            traces_path=trace_path, network_path=net_path,
            out_dir=str(tmp_path / f"out_{chunk_size}"), chunk_size=chunk_size))
        assert manifest["offset"]["source"] == "estimated"
        runs.append((manifest["offset"], manifest["counts"], manifest["digests"]))
    assert runs[0][0]["dlat"] != 0.0
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("target, stage", [
    ("tracepattern.network.load_network", "load_network"),
    ("tracepattern.matching.match_batch", "ingest_and_match"),
    ("tracepattern.patterns.TensorBuilder.finalize", "build_tensors"),
    ("tracepattern.patterns.clean_speed_matrix", "clean"),
    ("tracepattern.congestion.score_matrix", "analyze"),
    ("tracepattern.export.sha256_file", "export"),
])
def test_manifest_names_the_failed_stage(tmp_path, target, stage):
    gen = generate(Scenario(seed=5, grid_rows=2, grid_cols=2, n_days=1,
                            demand_profile=uniform_profile(2)))
    net_path, trace_path = write_scenario(gen, str(tmp_path / "data"))
    out = tmp_path / "out"
    with mock.patch(target, side_effect=RuntimeError("boom")), \
            pytest.raises(RuntimeError, match="boom"):
        run_pipeline(RunConfig(traces_path=trace_path, network_path=net_path,
                               out_dir=str(out), offset=(0.0, 0.0)))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failed_stage"] == stage and manifest["error"] == "boom"
    assert manifest["stages_completed"] == list(STAGES[:STAGES.index(stage)])
