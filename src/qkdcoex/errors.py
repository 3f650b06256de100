"""Exception hierarchy, the finite check every input applies, and the
decorator that makes the package's frozen records: they keep the contract
of `@dataclass(frozen=True)` without importing `dataclasses`.

Configuration and argument problems derive from ValueError so they behave
naturally with code that validates inputs; failures of a computation that
was asked to do something impossible derive from RuntimeError. The CLI maps
the first group to exit code 1 and the second to exit code 2.
"""

import math
import operator
import reprlib
import sys
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
    """The numbers in `value`, floats and ints (a bool is an int): itself,
    or those inside a mapping or sequence."""
    if isinstance(value, (float, int)):
        yield value
    elif isinstance(value, (Mapping, tuple, list)):
        for item in (value.values() if isinstance(value, Mapping) else value):
            yield from _floats(item)


def _finite(numbers) -> bool:
    """Whether each of `numbers` is finite, and an int also fits a float."""
    try:
        return all(map(math.isfinite, numbers))
    except OverflowError:
        return False


def _require_real(where: str, error=DomainError, /, **values) -> None:
    """Raise `error` naming the first value that holds an int too large for
    a float, on which float arithmetic raises OverflowError. Public functions
    pass `**locals()` first, and keep their own rule for NaN and infinities."""
    for name, value in values.items():
        try:
            list(map(float, _floats(value)))
        except OverflowError:
            raise error(f"{where} {name} is too large to convert to "
                        f"a float") from None


def _require_finite(where: str, **values) -> None:
    """Raise ConfigError naming the first value that holds a NaN, an infinity
    or an int too large for a float; a range check alone lets NaN through."""
    for name, value in values.items():
        if not _finite(_floats(value)):
            _require_real(where, ConfigError, **{name: value})
            raise ConfigError(f"{where} {name} must be finite, got {value!r}")


def _record_init(self, *args, **kwargs):
    cls = self.__class__
    names = cls._record_names
    if kwargs or len(args) != len(names):
        self.__dict__.update(_record_bind(cls, args, kwargs))
    else:
        self.__dict__.update(zip(names, args))
    if cls._record_post_init:
        self.__post_init__()


def _record_bind(cls, args, kwargs):
    """The fields of a call that passes keywords or leaves fields to their
    defaults, as a dict in field order. A call that binds a field twice,
    names no field or leaves one unbound raises the `TypeError` that the
    dataclass twin's `__init__` raises for it."""
    names, given = cls._record_names, len(args)
    # Every field in order: its default, or None until the call binds it.
    values = {**cls._record_template, **kwargs}
    values.update(zip(names, args))
    if (given > len(names) or len(values) != len(names)
            or not kwargs.keys().isdisjoint(names[:given])
            or not all(map(kwargs.__contains__,
                           names[given:cls._record_required]))):
        _dataclass_twin(cls)(*args, **kwargs)
    return values


def _record_setattr(self, name, value):
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _record_delattr(self, name):
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot delete field {name!r}")


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


def _replace(obj, **changes):
    """`dataclasses.replace` for a record: a copy with some fields changed,
    validated again by the class."""
    return type(obj)(**{**vars(obj), **changes})


def _freeze(record, convert, *fields) -> None:
    """Store `convert` of each of a record's `fields` before any check."""
    for name in fields:
        object.__setattr__(record, name, convert(getattr(record, name)))


def _dataclass_twin(cls):
    """A `@dataclass(frozen=True)` class with the record's name, fields,
    defaults and docstring, and no methods of its own."""
    from dataclasses import dataclass
    namespace = {name: cls._record_template[name]
                 for name in cls._record_names[cls._record_required:]}
    namespace.update(__module__=cls.__module__, __qualname__=cls.__qualname__,
                     __annotations__=dict(cls.__annotations__))
    if cls.__dict__["__doc__"].__class__ is not _DataclassView:
        namespace["__doc__"] = cls.__doc__
    return dataclass(frozen=True)(type(cls.__name__, (), namespace))


class _DataclassView:
    """A class attribute that `dataclass` would set (`__dataclass_fields__`,
    `__dataclass_params__`, the `__signature__` of `__init__`, a missing
    `__doc__`), read from the record's dataclass twin. The first read of
    any of them builds the twin and replaces every view of the class by
    the twin's value, so `dataclasses` and `inspect` load only for a
    caller that asks for them."""

    def __init__(self, record, name):
        self.record, self.name = record, name

    def __get__(self, instance, cls):
        import inspect
        record = self.record
        twin = _dataclass_twin(record)
        for name, attr in list(vars(record).items()):
            if attr.__class__ is _DataclassView:
                setattr(record, name, inspect.signature(twin)
                        if name == "__signature__" else getattr(twin, name))
        return getattr(record, self.name)


_VIEWS = ("__dataclass_fields__", "__dataclass_params__", "__signature__")


def _record(cls):
    """Make `cls` a frozen record: `@dataclass(frozen=True)` without
    `dataclasses`, through methods that all records share instead of
    methods compiled for each class.

    Every annotation of the class body is a field, in order; a class
    value is its default. The shared `__init__` sets the fields from
    positional or keyword arguments and then calls `__post_init__` where
    the class has one; a wrong call raises the `TypeError` of the
    dataclass's own `__init__`. Assigning or deleting an attribute raises
    `dataclasses.FrozenInstanceError` with its text. A record equals only
    an instance of the same class with an equal tuple of field values,
    hashes as that tuple and has the dataclass repr. `dataclasses.fields`,
    `replace`, `asdict`, `is_dataclass` and `inspect.signature` read the
    class's dataclass view, which a `@dataclass(frozen=True)` twin of the
    class supplies on first use (`_DataclassView`).
    """
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {name: cls.__dict__[name] for name in names
                if name in cls.__dict__}
    dc = sys.modules.get("dataclasses")
    if len(names) < 2 or (dc and any(isinstance(value, dc.Field)
                                     for value in defaults.values())):
        # attrgetter gives a tuple only for two names or more, and every
        # field enters the equality, the hash and the repr: no field()
        # options are read.
        raise TypeError(f"{cls.__name__}: a record needs two or more "
                        "fields, each with the default repr, compare and hash")
    if (names[len(names) - len(defaults):] != tuple(defaults)
            or any(type(value).__hash__ is None for value in defaults.values())):
        raise TypeError(f"{cls.__name__}: fields with a default must come "
                        "last, and each default must be hashable")
    cls._record_names = names
    cls._record_required = len(names) - len(defaults)
    cls._record_template = {name: defaults.get(name) for name in names}
    cls._record_values = operator.attrgetter(*names)
    cls._record_post_init = hasattr(cls, "__post_init__")
    cls.__init__, cls.__setattr__, cls.__delattr__ = (
        _record_init, _record_setattr, _record_delattr)
    cls.__eq__, cls.__hash__, cls.__repr__ = _record_eq, _record_hash, _record_repr
    cls.__replace__ = _replace
    if "__match_args__" not in cls.__dict__:
        cls.__match_args__ = names
    for name in _VIEWS + (() if cls.__doc__ else ("__doc__",)):
        setattr(cls, name, _DataclassView(cls, name))
    return cls
