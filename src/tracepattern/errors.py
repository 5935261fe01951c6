"""Exception hierarchy shared across the package."""


class TracePatternError(Exception):
    """Base class for all package errors."""


class ConfigError(TracePatternError):
    """Invalid or inconsistent run configuration."""


class ParseError(TracePatternError):
    """A single trace row could not be parsed."""


class RecordValidationError(TracePatternError):
    """A parsed trace row failed range validation."""


class IngestError(TracePatternError):
    """Fatal I/O failure while reading a trace file."""


class DataQualityError(TracePatternError):
    """Row error rate exceeded the configured ceiling."""


class NetworkError(TracePatternError):
    """Road network document is structurally invalid."""


class OffsetEstimationError(TracePatternError):
    """Offset estimation could not run (e.g. sample too small)."""


class OffsetCapError(TracePatternError):
    """Estimated offset exceeds the plausibility cap."""


class TensorKeyError(TracePatternError):
    """The traces hold more orders than finalize's int64 sort keys can rank."""


class ExportError(TracePatternError):
    """Requested export target does not exist in the data, or an exported
    file read back is malformed."""


class ComparisonError(TracePatternError):
    """Inputs that must share an axis do not (matrices, or a matrix and the network)."""
