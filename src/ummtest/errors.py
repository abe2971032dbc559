"""Exception types shared across the package, and the input rules that raise them.

Each rule checks one argument against one domain the paper states its
results on, names the argument in its message, and returns the value to
use:

* ``positive_int`` -- a dimension, blocklength or count: an ``int`` or
  numpy integer (not a ``bool``), at least 1; returns an ``int``;
* ``positive_real`` -- a separation, scale or hardness: finite and > 0;
  returns a ``float``;
* ``nonnegative_real`` -- a training precision or noncentrality: finite
  and >= 0; returns a ``float``;
* ``level`` -- a probability strictly inside (0, 1), NaN refused; returns
  its argument;
* ``float_array`` -- a vector or matrix of a fixed shape; returns the
  float array.

The first four raise DomainError, the last ConfigError.
"""

import math

import numpy as np


class UmmtestError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(UmmtestError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class RangeError(UmmtestError, ValueError):
    """A target value lies outside the range of an invertible function."""


class SingularityError(UmmtestError, ValueError):
    """A matrix required to be positive definite is (numerically) singular."""


class StabilityError(UmmtestError, ValueError):
    """An autoregression is not stable (roots inside the unit circle)."""


class ConfigError(UmmtestError, ValueError):
    """An invalid or inconsistent run configuration."""


def positive_int(value, name) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise DomainError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def positive_real(value, name) -> float:
    value = float(value)
    if not (value > 0.0 and math.isfinite(value)):
        raise DomainError(f"{name} must be a positive real, got {value!r}")
    return value


def nonnegative_real(value, name) -> float:
    value = float(value)
    if not (value >= 0.0 and math.isfinite(value)):
        raise DomainError(f"{name} must be a finite nonnegative real, got {value!r}")
    return value


def level(value, name):
    if not 0.0 < value < 1.0:
        raise DomainError(f"{name} must lie in (0, 1), got {value!r}")
    return value


def float_array(value, shape, name) -> np.ndarray:
    a = np.asarray(value, dtype=float)
    if a.shape != shape:
        raise ConfigError(f"{name} must have shape {shape}, got {a.shape}")
    return a
