"""Exception taxonomy shared by all modules, and the readers' JSON member check."""


class TrackingError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(TrackingError):
    """Caller passed data violating a precondition (non-finite, degenerate, duplicate ids)."""


class ConfigurationError(TrackingError):
    """A configuration value is outside its declared set or references an unknown entity."""


class UndefinedMeanError(TrackingError):
    """Circular mean requested for an antipodally cancelling angle set."""


class UndefinedMetricError(TrackingError):
    """A metric's denominator is empty (no ground truth, predictions, or matched pairs)."""


class StreamOrderError(TrackingError):
    """Frame timestamps are not strictly increasing."""


class InternalStateError(TrackingError):
    """Tracker state violated an internal invariant."""


class AlignmentError(TrackingError):
    """Two streams that must share a frame-by-frame timeline do not."""


class ParseError(TrackingError):
    """A stream or config file could not be parsed; carries the offending line."""

    def __init__(self, message: str, line_number: int | None = None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


def in_file(exc: TrackingError, name: str) -> TrackingError:
    """`exc`, its message led by `name`, the file it was raised on, as in
    `stream <path>: line 60: missing field 'cx'`; any line number is kept."""
    exc.args = (f"{name}: {exc}",)
    return exc


def json_member(obj: dict, key: str, kinds: type | tuple[type, ...] = (int, float), line: int | None = None):
    """`obj[key]`, checked for presence and JSON type (by default a number), else a
    `ParseError` naming `line`. A JSON `true`/`false` is a bool and never an int,
    so a bool passes only where `kinds` is `bool` itself."""
    if key not in obj:
        raise ParseError(f"missing field {key!r}", line)
    val = obj[key]
    if not isinstance(val, kinds) or (isinstance(val, bool) and kinds is not bool):
        raise ParseError(f"field {key!r} has wrong type {type(val).__name__}", line)
    return val
