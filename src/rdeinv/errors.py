"""Exception types, and the input rules that every public entry point shares:
`is_int` for indices, `count` for sizes and step counts (an int >= 1, never a
bool), `non_negative` for seeds (an int >= 0, never a bool), `positive` for
steps and tolerances (0 < v < inf), `finite` for arrays."""

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


def is_int(value):
    """Whether value is an int or NumPy integer; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def count(value, what):
    """value as an int if it is an int or NumPy integer >= 1, else InvalidParameter."""
    if not (is_int(value) and value >= 1):
        raise InvalidParameter(f"{what} must be an integer >= 1, got {value!r}")
    return int(value)


def non_negative(value, what):
    """value as an int if it is an int or NumPy integer >= 0, else InvalidParameter."""
    if not (is_int(value) and value >= 0):
        raise InvalidParameter(f"{what} must be an integer >= 0, got {value!r}")
    return int(value)


def positive(value, what):
    """value as a float if 0 < value < inf, else InvalidParameter."""
    if not 0.0 < value < float("inf"):  # a NaN fails too
        raise InvalidParameter(f"{what} must be finite and > 0, got {value!r}")
    return float(value)


def finite(x, what):
    """x unchanged if every entry is finite, else InvalidParameter."""
    if not np.all(np.isfinite(x)):
        raise InvalidParameter(f"{what} must be finite, got {np.asarray(x).tolist()}")
    return x
