import datetime
import io
from dataclasses import dataclass

import numpy as np
import pytest

from tracepattern import network
from tracepattern.ingest import (DEFAULT_TZ_OFFSET_S, IngestStats, IntervalIndex,
                                 ParserConfig, TraceBatch, day_slot, read_chunks)
from tracepattern.synth import Scenario, generate, uniform_profile


@dataclass(frozen=True)
class TraceRecord:
    """One GPS ping: the row-at-a-time form of a TraceBatch row."""

    driver_id: str
    order_id: str
    timestamp: int
    lat: float
    lon: float


def batch_from_records(records):
    """The TraceBatch of TraceRecords, in order."""
    return TraceBatch(np.array([r.order_id for r in records], dtype=object),
                      np.array([r.timestamp for r in records], dtype=np.int64),
                      np.array([r.lat for r in records], dtype=np.float64),
                      np.array([r.lon for r in records], dtype=np.float64))


def assign_interval(timestamp, tz_offset_s=DEFAULT_TZ_OFFSET_S):
    """The day-local 15-minute interval of one epoch timestamp."""
    day, slot = day_slot(timestamp, tz_offset_s)
    return IntervalIndex(datetime.date.fromordinal(int(day)), int(slot))


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
