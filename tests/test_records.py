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
import json
import pickle
import pkgutil
import subprocess
import sys
from dataclasses import FrozenInstanceError, asdict, fields, replace
from pathlib import Path

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


# The records are made without `dataclasses`: one shared `__init__`,
# `__setattr__` and `__delattr__`, and a dataclass view (fields, params,
# signature) that a `@dataclass(frozen=True)` twin supplies on first read.

RECORDS = [type(record) for record in SAMPLES]


def _twin(cls):
    """A `@dataclass(frozen=True)` class with the name, fields, defaults
    and docstring of `cls`, and none of its methods."""
    namespace = {name: cls.__dict__[name] for name in cls.__annotations__
                 if name in cls.__dict__}
    namespace.update(__annotations__=dict(cls.__annotations__),
                     __qualname__=cls.__qualname__, __module__=cls.__module__,
                     __doc__=cls.__doc__)
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), namespace))


def _type_error(cls, args, kwargs):
    with pytest.raises(TypeError) as info:
        cls(*args, **kwargs)
    return str(info.value)


def test_every_record_shares_one_init_setattr_and_delattr():
    for cls in RECORDS:
        assert cls.__init__ is errors._record_init, cls
        assert cls.__setattr__ is errors._record_setattr, cls
        assert cls.__delattr__ is errors._record_delattr, cls
        fields(cls)   # one read replaces every view by the twin's value
        assert not any(isinstance(attr, errors._DataclassView)
                       for attr in vars(cls).values()), cls


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_signature_doc_and_match_args_are_the_dataclass_ones(cls):
    twin = _twin(cls)
    assert inspect.signature(cls) == inspect.signature(twin)
    assert str(inspect.signature(cls)) == str(inspect.signature(twin))
    assert cls.__doc__ == twin.__doc__
    assert cls.__match_args__ == twin.__match_args__
    assert repr(cls.__dataclass_params__) == repr(twin.__dataclass_params__)


def test_a_record_without_a_docstring_gets_the_dataclass_one():
    namespace = {"__annotations__": {"x": "float", "y": "int"}, "y": 2}
    record = errors._record(type("Point", (), dict(namespace)))
    reference = dataclasses.dataclass(frozen=True)(
        type("Point", (), dict(namespace)))
    assert record.__doc__ == reference.__doc__ == "Point(x: 'float', y: 'int' = 2)"
    assert record(1.0).__doc__ == reference.__doc__


@pytest.mark.parametrize("record", SAMPLES, ids=IDS)
def test_construction_gives_the_dataclass_values(record):
    cls, twin = type(record), _twin(type(record))
    values = _values(record)
    names = list(values)
    first, *rest = names
    required = [values[name] for name in names if name not in vars(cls)]
    calls = [
        (tuple(values.values()), {}),                       # positional
        ((), values),                                       # keyword
        ((values[first],), {name: values[name] for name in rest}),
        (required, {}),                                     # defaulted
    ]
    for args, kwargs in calls:
        made = cls(*args, **kwargs)
        assert _values(made) == _values(twin(*args, **kwargs))
        assert list(vars(made)) == names                    # in field order


@pytest.mark.parametrize("record", SAMPLES, ids=IDS)
def test_bad_calls_raise_the_dataclass_type_errors(record):
    cls, twin = type(record), _twin(type(record))
    values = _values(record)
    names = list(values)
    calls = [
        ((*values.values(), 0), {}),                        # one too many
        ((), {**values, "no_such_field": 0}),               # unknown
        ((values[names[0]],), values),                      # duplicate
    ]
    required = [name for name in names if name not in vars(cls)]
    if required:                                            # missing
        calls.append(((), {name: values[name] for name in names
                           if name != required[-1]}))
    for args, kwargs in calls:
        message = _type_error(cls, args, kwargs)
        assert message == _type_error(twin, args, kwargs)
        assert message.startswith(f"{cls.__qualname__}.__init__() ")


@pytest.mark.parametrize("record", SAMPLES, ids=IDS)
def test_frozen_messages_are_the_dataclass_ones(record):
    def messages(obj):
        name = fields(obj)[-1].name
        found = []
        for act in (lambda: setattr(obj, name, 0), lambda: delattr(obj, name),
                    lambda: setattr(obj, "new", 0), lambda: delattr(obj, "new")):
            with pytest.raises(FrozenInstanceError) as info:
                act()
            found.append(str(info.value))
        return found

    reference = _twin(type(record))(**_values(record))
    assert messages(record) == messages(reference)


@pytest.mark.parametrize("record", SAMPLES, ids=IDS)
def test_pickle_and_copy_round_trips(record):
    for made in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                 copy.deepcopy(record)):
        assert type(made) is type(record)
        assert made == record and hash(made) == hash(record)
        assert list(vars(made)) == list(vars(record))


@pytest.mark.parametrize("record", SAMPLES, ids=IDS)
def test_replace_protocol(record):
    # `copy.replace` (Python 3.13) calls `__replace__`, which dataclasses
    # set from 3.13 on; records have it on every version.
    name, value = next(iter(_values(record).items()))
    assert type(record).__replace__(record) == record
    assert type(record).__replace__(record, **{name: value}) == replace(record)


def test_dataclass_view_in_a_process_that_imports_dataclasses_last():
    # In this process `dataclasses` was loaded before the records were
    # made; a fresh one loads it only after `qkdcoex`, as a caller of
    # `fields` or `replace` does. Both give the same view.
    child = """
import json, sys
sys.path[:0] = sys.argv[1:]
import qkdcoex, qkdcoex.cli
before = [m for m in ("dataclasses", "inspect") if m in sys.modules]
import dataclasses, inspect
from test_records import SAMPLES, _view
print(json.dumps({"before": before, "view": [_view(r) for r in SAMPLES]}))
"""
    paths = [str(Path(qkdcoex.__file__).parents[1]), str(Path(__file__).parent)]
    proc = subprocess.run([sys.executable, "-c", child, *paths],
                          capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout)
    assert result == {"before": [], "view": [_view(r) for r in SAMPLES]}


def _view(record):
    """What `dataclasses` and `inspect` say about a record, as text."""
    return [dataclasses.is_dataclass(record),
            [f.name for f in fields(record)],
            replace(record) == record,
            repr(asdict(record)),
            repr(dataclasses.astuple(record)),
            str(inspect.signature(type(record)))]


def test_a_dataclass_field_default_is_refused():
    for default in (dataclasses.field(default=0.0),
                    dataclasses.field(default_factory=float)):
        namespace = {"__annotations__": {"x": float, "y": float}, "y": default}
        with pytest.raises(TypeError, match="default repr, compare and hash"):
            errors._record(type("Fielded", (), namespace))


def test_defaults_come_last_and_are_hashable():
    for namespace in ({"__annotations__": {"x": float, "y": float}, "x": 0.0},
                      {"__annotations__": {"x": float, "y": list}, "y": []}):
        with pytest.raises(TypeError, match="must come last"):
            errors._record(type("Misordered", (), namespace))
