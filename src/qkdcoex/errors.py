"""Exception hierarchy, the finite check every input applies, and the
decorator that makes the package's frozen records.

Configuration and argument problems derive from ValueError so they behave
naturally with code that validates inputs; failures of a computation that
was asked to do something impossible derive from RuntimeError. The CLI maps
the first group to exit code 1 and the second to exit code 2.
"""

import math
import operator
import reprlib
from collections.abc import Mapping
from dataclasses import dataclass, fields


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


def _record_eq(self, other):
    if other.__class__ is self.__class__:
        values = self._record_values
        return values(self) == values(other)
    return NotImplemented


def _record_hash(self):
    return hash(self._record_values(self))


@reprlib.recursive_repr()
def _record_repr(self):
    pairs = zip(self._record_names, self._record_values(self))
    return (f"{self.__class__.__qualname__}("
            + ", ".join([f"{name}={value!r}" for name, value in pairs]) + ")")


def _record(cls):
    """`@dataclass(frozen=True)` with one shared `__eq__`, `__hash__` and
    `__repr__` instead of three methods compiled for each class.

    They behave as the generated ones: equal only to an instance of the
    same class with an equal tuple of field values, the hash of that
    tuple, and the same repr text. `fields`, `replace`, `asdict` and the
    `FrozenInstanceError` on assignment come from `dataclass` itself.
    """
    cls = dataclass(frozen=True, eq=False, repr=False)(cls)
    flds = fields(cls)
    if len(flds) < 2 or any(not (f.repr and f.compare) or f.hash is not None
                            for f in flds):
        # attrgetter gives a tuple only for two names or more, and every
        # field enters the equality, the hash and the repr.
        raise TypeError(f"{cls.__name__}: a record needs two or more "
                        "fields, each with the default repr, compare and hash")
    cls._record_names = tuple(f.name for f in flds)
    cls._record_values = operator.attrgetter(*cls._record_names)
    cls.__eq__, cls.__hash__, cls.__repr__ = _record_eq, _record_hash, _record_repr
    return cls
