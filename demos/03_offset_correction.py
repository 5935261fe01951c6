"""Recover a systematic coordinate shift before map matching.

Some trace exports arrive in a coordinate frame that is translated by a
roughly constant (dlat, dlon) relative to the road network. Matching
without correcting it either fails outright or snaps points to the wrong
roads. Here we inject a known shift, estimate it back from a sample of
the stream, and show the match rate before and after correction.
"""

import io

from tracepattern.ingest import IngestStats, ParserConfig, TraceBatch, read_chunks
from tracepattern.matching import apply_offset, estimate_offset, match_batch
from tracepattern.network import load_network
from tracepattern.synth import Scenario, generate, uniform_profile

INJECTED = (0.002, -0.002)  # degrees; roughly 220 m north, 190 m west

scenario = Scenario(seed=19, demand_profile=uniform_profile(2),
                    injected_offset=INJECTED)
gen = generate(scenario)
net = load_network(gen.network_doc)

records = TraceBatch.concat(list(read_chunks(io.StringIO(gen.trace_csv),
                                             ParserConfig(), IngestStats())))

_, unmatched_before = match_batch(records, net)
print(f"injected shift: {INJECTED}")
print(f"match rate before correction: "
      f"{1 - unmatched_before / len(records):.1%}")

offset = estimate_offset(records[:1000], net)
print(f"estimated correction: ({offset.dlat:+.6f}, {offset.dlon:+.6f})")
print(f"error vs ideal (-dlat, -dlon): "
      f"({offset.dlat + INJECTED[0]:+.2e}, {offset.dlon + INJECTED[1]:+.2e})")

corrected, _ = apply_offset(records, offset)
matched, unmatched_after = match_batch(corrected, net)
print(f"match rate after correction: "
      f"{len(matched) / len(records):.1%} ({unmatched_after} unmatched)")
