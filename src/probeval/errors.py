"""Exception and warning types shared across the package, and the one way to warn."""

import sys
import warnings


class ProbevalError(Exception):
    """Base class for every error this package raises deliberately."""


class NotConvertibleError(ProbevalError):
    """A forecast cannot be converted to the requested form."""


class InvalidLevelError(ProbevalError):
    """A probability level lies outside the open interval (0, 1)."""


class InvalidBetaError(ProbevalError):
    """An energy-score exponent lies outside (0, 2]."""


class InvalidScaleError(ProbevalError):
    """A weight reference scale is not strictly positive."""


class OutsideSupportError(ProbevalError):
    """An observation falls outside the histogram grid.

    ``index`` is the position of the offending record in its batch, when
    the error comes from a batch kernel.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class EmptyBatchError(ProbevalError):
    """A batch operation received no records."""


class UnknownMetricError(ProbevalError):
    """A metric identifier is not in the registry."""


class NotComparableError(ProbevalError):
    """Models cannot be ranked: too few share complete data, or a cell's fold mean is NaN."""


class NoInformativeDatasetsError(ProbevalError):
    """Every dataset was dropped as zero-variance."""


class InvalidScenarioError(ProbevalError):
    """A synthetic scenario specification is inconsistent."""


class RecordParseError(ProbevalError):
    """A record in an input file is malformed; carries its line and message."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


class UnknownFormError(RecordParseError):
    """A forecast record declares an unrecognized forecast type."""


class AmbiguousFormError(RecordParseError):
    """A forecast record mixes fields from more than one forecast form."""


class DuplicateKeyError(RecordParseError):
    """Two run records share the same (model, dataset, fold, metric) key."""


class InvalidValueError(RecordParseError):
    """A run record carries a non-finite metric value."""


class QuantileCrossingWarning(UserWarning):
    """Non-monotone quantile values were repaired by sorting."""


class DroppedDatasetWarning(UserWarning):
    """A dataset was dropped during leaderboard aggregation."""


class ConversionWarning(UserWarning):
    """A metric was computed through a lossy forecast conversion."""


def warn(message: str, category: type[Warning]) -> None:
    """Issue a warning that names the first caller outside this package."""
    level, frame = 2, sys._getframe(1)
    while frame.f_back is not None and frame.f_globals.get("__name__", "").startswith("probeval."):
        level, frame = level + 1, frame.f_back
    warnings.warn(message, category, stacklevel=level)
