"""Road-level spatio-temporal traffic patterns from car-hailing GPS traces.

Pipeline: chunked trace ingestion -> constant-shift correction and
nearest-road matching -> flow / mean-speed tensor matrices -> cleaning ->
congestion scoring and temporal-dispersion analytics -> file exports.
"""

from .congestion import (CongestionSeries, FittingResult, daily_aggregates,
                         fitting_index, min_max_normalize, score_matrix)
from .geo import EARTH_RADIUS_KM, haversine
from .ingest import (IntervalIndex, ParserConfig, TraceBatch, read_chunks,
                     read_chunks_from_path)
from .matching import OffsetVector, apply_offset, estimate_offset, match_batch
from .network import RoadNetwork, RoadSegment, load_network
from .patterns import (SpatioTemporalMatrix, TensorBuilder, clean_speed_matrix,
                       filter_missing)
from .pipeline import RunConfig, run_pipeline
from .synth import Scenario, compare, generate

__all__ = [
    "CongestionSeries", "FittingResult", "daily_aggregates",
    "fitting_index", "min_max_normalize", "score_matrix",
    "EARTH_RADIUS_KM", "haversine",
    "IntervalIndex", "ParserConfig", "TraceBatch", "read_chunks",
    "read_chunks_from_path",
    "OffsetVector", "apply_offset", "estimate_offset", "match_batch",
    "RoadNetwork", "RoadSegment", "load_network",
    "SpatioTemporalMatrix", "TensorBuilder",
    "clean_speed_matrix", "filter_missing", "RunConfig", "run_pipeline",
    "Scenario", "compare", "generate",
]
