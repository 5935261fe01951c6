import datetime
import io
from dataclasses import dataclass

import numpy as np
import pytest

from tracepattern import network
from tracepattern.errors import UndefinedScoreError
from tracepattern.ingest import (DEFAULT_TZ_OFFSET_S, IngestStats, IntervalIndex,
                                 ParserConfig, TraceBatch, day_slot, read_chunks)
from tracepattern.patterns import DEFAULT_PAIR_DT_MAX_S, TensorBuilder
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


def inrix_score(free_flow_kmh: float, speed_kmh: float) -> float:
    """Congestion score for one road-interval: max(TH/RE - 1, 0); the
    scalar oracle of ``congestion.score_matrix``'s cells."""
    if speed_kmh <= 0.0:
        raise UndefinedScoreError(f"speed {speed_kmh} km/h is not positive")
    return max(free_flow_kmh / speed_kmh - 1.0, 0.0)


def network_inrix(scores, lengths_km) -> float:
    """Length-weighted network congestion score over roads with defined
    scores; the oracle of one ``CongestionSeries.network`` value. Raises
    UndefinedScoreError for an empty road set.
    """
    scores = np.asarray(scores, dtype=np.float64)
    lengths = np.asarray(lengths_km, dtype=np.float64)
    ok = ~np.isnan(scores)
    if not np.any(ok):
        raise UndefinedScoreError("no roads with defined scores")
    return float(np.sum(lengths[ok] * scores[ok]) / np.sum(lengths[ok]))


def build_tensors(matched_batches, road_ids, pair_dt_max_s=DEFAULT_PAIR_DT_MAX_S):
    """(FlowMatrix, SpeedMatrix) from an iterable of matched TraceBatches,
    intervals in the default UTC+8 offset."""
    builder = TensorBuilder(road_ids, pair_dt_max_s)
    for batch in matched_batches:
        builder.add(batch)
    return builder.finalize()


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
