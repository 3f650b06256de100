"""Exception hierarchy, and the finite check every input applies.

Configuration and argument problems derive from ValueError so they behave
naturally with code that validates inputs; failures of a computation that
was asked to do something impossible derive from RuntimeError. The CLI maps
the first group to exit code 1 and the second to exit code 2.
"""

import math
from collections.abc import Mapping


class QkdCoexError(Exception):
    """Base class for all package errors."""


class ConfigError(QkdCoexError, ValueError):
    """Invalid scenario/configuration data; message names the offending key
    or the violated invariant."""


class DomainError(QkdCoexError, ValueError):
    """An argument to a pure operation is outside its mathematical domain."""


class UndefinedBoundError(DomainError):
    """A decoy bound is undefined (zero single-photon yield lower bound);
    callers treat the corresponding key rate as zero."""


class ComputationError(QkdCoexError, RuntimeError):
    """A well-posed computation could not produce a result."""


class DegenerateFitError(ComputationError):
    """Least-squares fit has no information (all model values zero)."""


class CalibrationError(ComputationError):
    """Calibration objective was non-finite over the whole search grid."""


class NoSecureDistanceError(ComputationError):
    """The key rate is non-positive over the entire search range."""


def _floats(value):
    """The floats in `value`: itself, or those inside a mapping or sequence."""
    if isinstance(value, float):
        yield value
    elif isinstance(value, (Mapping, tuple, list)):
        for item in (value.values() if isinstance(value, Mapping) else value):
            yield from _floats(item)


def _require_finite(where: str, **values) -> None:
    """Raise ConfigError naming the first value that holds a NaN or an
    infinity; a range check alone lets NaN through (every comparison with it
    is false)."""
    for name, value in values.items():
        if not all(map(math.isfinite, _floats(value))):
            raise ConfigError(f"{where} {name} must be finite, got {value!r}")
