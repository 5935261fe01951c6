import io

import pytest

from tracepattern import network
from tracepattern.ingest import IngestStats, ParserConfig, TraceBatch, read_chunks
from tracepattern.synth import Scenario, generate, uniform_profile


@pytest.fixture(scope="session")
def small_scenario():
    return Scenario(seed=2, demand_profile=uniform_profile(3))


@pytest.fixture(scope="session")
def small_generated(small_scenario):
    return generate(small_scenario)


@pytest.fixture(scope="session")
def small_net(small_generated):
    return network.load_network(small_generated.network_doc)


def parse_all(trace_csv, config=None):
    config = config or ParserConfig()
    stats = IngestStats()
    records = TraceBatch.concat(list(read_chunks(io.StringIO(trace_csv), config, stats)))
    return records, stats


@pytest.fixture(scope="session")
def small_records(small_generated):
    records, _ = parse_all(small_generated.trace_csv)
    return records
