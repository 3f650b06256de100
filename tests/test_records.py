"""The frozen records keep the dataclass contract.

Every dataclass in the package is made by `errors._record`, which shares
one `__eq__`, `__hash__` and `__repr__` among all records instead of
generating three methods per class. Each record is checked against a
`@dataclass(frozen=True)` twin holding the same values: the same repr
bytes and hash, equality only with its own class, frozen fields, and the
`dataclasses` helpers.
"""

import copy
import dataclasses
import importlib
import inspect
import pkgutil
from dataclasses import FrozenInstanceError, asdict, fields, replace

import pytest

import qkdcoex
from qkdcoex import errors
from qkdcoex.decoy import ChannelPoint, key_rate_details
from qkdcoex.presets import FMF_MODAL_ISOLATION, REFERENCE_TARGETS, get_preset
from qkdcoex.raman import NoiseMeasurement
from qkdcoex.scenario import (SweepSpec, calibrate, channel_state, evaluate_at,
                              max_secure_distance)


def _package_dataclasses():
    """Every dataclass defined in a module of the package (`__main__`
    runs the CLI when imported, and defines none)."""
    found = set()
    for info in pkgutil.iter_modules(qkdcoex.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"qkdcoex.{info.name}")
        found.update(cls for cls in vars(module).values()
                     if inspect.isclass(cls) and dataclasses.is_dataclass(cls)
                     and cls.__module__ == module.__name__)
    return found


def _samples():
    """One instance of every record, built through the public API."""
    smf = get_preset("smf")
    ch = ChannelPoint(1e-3, 1e-6)
    report = calibrate([get_preset(name) for name, _ in REFERENCE_TARGETS],
                       [target for _, target in REFERENCE_TARGETS])
    link = smf.link
    return [
        smf, link, link.fiber, link.scheme, link.quantum_path_components[0],
        smf.raman, smf.detector, smf.protocol, smf.intensities,
        FMF_MODAL_ISOLATION, NoiseMeasurement(10.0, 0.5, 9000.0),
        SweepSpec(0.0, 10.0, 1.0), evaluate_at(smf, 50.0),
        channel_state(smf, 50.0), ch,
        key_rate_details(ch, smf.intensities, smf.protocol),
        max_secure_distance(smf), REFERENCE_TARGETS[0][1], report,
        report.residuals[0],
    ]


SAMPLES = _samples()
IDS = [type(record).__name__ for record in SAMPLES]


def _values(record):
    return {f.name: getattr(record, f.name) for f in fields(record)}


def _class_like(cls, decorate):
    """A class with the name and field names of `cls`, no validation and
    no methods, made by `decorate`."""
    names = [f.name for f in fields(cls)]
    namespace = {"__annotations__": dict.fromkeys(names, object),
                 "__qualname__": cls.__qualname__,
                 "__module__": cls.__module__}
    return decorate(type(cls.__name__, (), namespace))


def _reference(record):
    """The same values in a `@dataclass(frozen=True)` class of the same
    name: what the record's methods are measured against."""
    cls = _class_like(type(record), dataclasses.dataclass(frozen=True))
    return cls(**_values(record))


def _with_field(record, name, value):
    """A copy of `record` with one field set, past its validation."""
    other = copy.copy(record)
    object.__setattr__(other, name, value)
    return other


def test_every_dataclass_is_a_record_and_has_a_sample():
    found = _package_dataclasses()
    assert len(found) == 20
    for cls in found:
        assert cls.__eq__ is errors._record_eq, cls
        assert cls.__hash__ is errors._record_hash, cls
        assert cls.__repr__ is errors._record_repr, cls
        assert cls.__dataclass_params__.frozen, cls
    assert {type(record) for record in SAMPLES} == found


@pytest.mark.parametrize("record", SAMPLES, ids=IDS)
def test_equality(record):
    twin = replace(record)
    assert twin is not record
    assert record == twin and not record != twin
    for f in fields(record):
        differing = _with_field(record, f.name, object())
        assert record != differing and not record == differing, f.name
    # Another record type, and the plain dataclass, with the same values.
    other = _class_like(type(record), errors._record)(**_values(record))
    reference = _reference(record)
    for stranger in (other, reference):
        assert type(record).__eq__(record, stranger) is NotImplemented
        assert record != stranger and not record == stranger
        assert stranger != record and not stranger == record


@pytest.mark.parametrize("record", SAMPLES, ids=IDS)
def test_hash(record):
    assert hash(record) == hash(replace(record))
    assert hash(record) == hash(tuple(_values(record).values()))
    assert hash(record) == hash(_reference(record))


@pytest.mark.parametrize("record", SAMPLES, ids=IDS)
def test_repr_is_the_dataclass_repr(record):
    assert repr(record) == repr(_reference(record))


def test_recursive_repr_is_the_dataclass_repr():
    record = SweepSpec(0.0, 10.0, 1.0)
    loop = _with_field(record, "step_km", [])
    loop.step_km.append(loop)
    reference = _reference(record)
    object.__setattr__(reference, "step_km", [reference])
    assert repr(loop) == repr(reference) == (
        "SweepSpec(from_km=0.0, to_km=10.0, step_km=[...])")


def test_repr_of_a_nested_record_is_the_dataclass_repr():
    # Every package record is top level, where the qualified name is the
    # name; the repr uses the qualified one, as dataclasses' does.
    namespace = {"__annotations__": {"x": float, "y": float},
                 "__qualname__": "Outer.Inner"}
    record = errors._record(type("Inner", (), dict(namespace)))(1.0, 2.0)
    reference = dataclasses.dataclass(frozen=True)(
        type("Inner", (), dict(namespace)))(1.0, 2.0)
    assert repr(record) == repr(reference) == "Outer.Inner(x=1.0, y=2.0)"


@pytest.mark.parametrize("record", SAMPLES, ids=IDS)
def test_frozen(record):
    name = fields(record)[0].name
    value = getattr(record, name)
    with pytest.raises(FrozenInstanceError):
        setattr(record, name, value)
    with pytest.raises(FrozenInstanceError):
        delattr(record, name)
    with pytest.raises(FrozenInstanceError):
        record.not_a_field = 1
    assert getattr(record, name) is value


@pytest.mark.parametrize("record", SAMPLES, ids=IDS)
def test_dataclass_helpers(record):
    assert dataclasses.is_dataclass(record)
    assert [f.name for f in fields(record)] == list(type(record).__annotations__)
    assert replace(record) == record
    assert asdict(record) == asdict(_reference(record))


def test_record_needs_two_plain_fields():
    with pytest.raises(TypeError, match="two or more fields"):
        errors._record(type("One", (), {"__annotations__": {"x": float}}))
    namespace = {"__annotations__": {"x": float, "y": float},
                 "y": dataclasses.field(default=0.0, repr=False)}
    with pytest.raises(TypeError, match="default repr, compare and hash"):
        errors._record(type("Hidden", (), namespace))
