"""Exception types shared across the toolkit.

Every error raised deliberately by this package derives from AgevalError, so
callers can catch one base class at an API boundary. Plain OSError from file
I/O is allowed to propagate untouched.
"""

import operator


class AgevalError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(AgevalError):
    """A value object was constructed with fields that violate its invariants."""


class FormatError(AgevalError):
    """A file is malformed or uses an unsupported encoding."""


class ManifestError(FormatError):
    """A corpus manifest is malformed (bad header, bad row, duplicate id)."""


class EmptyInputError(AgevalError):
    """An input carries no data: no samples, no frames, no rows."""


class DegenerateSignalError(AgevalError):
    """A signal has zero power where nonzero power is required."""


class SampleRateMismatchError(AgevalError):
    """Two waveforms that must share a sample rate do not."""


class TooShortError(AgevalError):
    """An input is too short for the requested analysis."""


class ShapeMismatchError(AgevalError):
    """Matrix or vector dimensions do not line up."""


class AlignmentError(AgevalError):
    """Paired inputs differ in length beyond the allowed tolerance."""


class NumericError(AgevalError):
    """A computation produced non-finite values."""


class ModelValidationError(ValidationError):
    """A model violates its structural invariants."""


class LabelError(AgevalError):
    """A class label is outside the valid range for the model being trained."""


class UndefinedCorrelationError(AgevalError):
    """Correlation is undefined because an input has zero variance."""


class DegenerateFitError(AgevalError):
    """A least-squares fit is degenerate (no variance in the regressor)."""


class TooFewPointsError(AgevalError):
    """Not enough data points for the requested statistic."""


class EmptyReportError(AgevalError):
    """No group had enough usable data to produce any report."""


class ConfigError(AgevalError):
    """A run configuration is inconsistent with itself or with the inputs."""


def _as_int(value: object, name: str, error: type[AgevalError] = ValidationError) -> int:
    """value as a Python int when it is a Python or numpy integer but not a bool; else error."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{name} must be an integer, got {value!r}")
