"""Exception types, and the integer test of indices and counts, shared across the package."""

import numpy as np


class RdeinvError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(RdeinvError, ValueError):
    """Array shapes or signal dimensions are inconsistent."""


class IndexOutOfRange(RdeinvError, IndexError):
    """A grid or field index is outside its valid range."""


class InvalidGrid(RdeinvError, ValueError):
    """A time grid or its data is not finite, not strictly increasing or inconsistent."""


class InvalidParameter(RdeinvError, ValueError):
    """A numeric parameter is outside its admissible range."""


class NonFinite(RdeinvError, ArithmeticError):
    """A computation produced NaN or infinity."""


class RankDeficient(RdeinvError, RuntimeError):
    """The reconstruction matrix does not have full parameter rank."""


class NotConverged(RdeinvError, RuntimeError):
    """An iterative solver exhausted its iteration budget."""


class DegenerateField(RdeinvError, ValueError):
    """A field vanishes where the inversion needs it to be nonzero."""


class OutOfNeighborhood(RdeinvError, RuntimeError):
    """An iterate left the region where the flow inversion is valid."""


class DomainViolation(RdeinvError, ValueError):
    """A state left the domain on which the fields are defined."""


class TrustRegionExceeded(UserWarning):
    """The recovered parameters lie outside the model injectivity ball."""


def is_int(value):
    """Whether value is an int or NumPy integer; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)
