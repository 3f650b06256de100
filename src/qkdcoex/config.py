"""Scenario configuration files.

Flat INI-style sections (fiber, components, classical, quantum, detector,
raman, sweep) with units embedded in the key names. Only the link geometry
and the Raman coefficient are mandatory. The other keys are record fields,
read as their annotations (`_ini_fields`) and booleans by configparser's
spellings; a field a file leaves out keeps its record default. Unknown
sections or keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import configparser
import functools
from pathlib import Path

from .decoy import DecoyIntensities, DetectorSpec, ProtocolParams
from .errors import ConfigError, _read_text, _require_finite
from .link import (Band, ComponentSpec, FiberKind, LinkPlan, MultiplexScheme,
                   SchemeName, Side)
from .presets import _fmf_parts, _smf_parts
from .raman import RamanCoefficient
from .scenario import _NOISE_DIVISORS, Scenario, SweepSpec

_SECTIONS = ("fiber", "components", "classical", "quantum", "detector",
             "raman", "sweep")
# Record fields whose INI key has another name.
_KEY_OF_FIELD = {"ec_efficiency": "error_correction_efficiency",
                 "classical_launch_power_dbm": "launch_power_dbm"}


def _boolean(raw: str) -> bool:
    return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]


# The field annotations an INI key may have: each one's reader, and what a
# value the reader refuses is not.
_KINDS = {"float": (float, "a number"), "int": (int, "an integer"),
          "bool": (_boolean, "a boolean")}


@functools.cache
def _ini_fields(record) -> tuple:
    """(field, INI key, annotation) of each field of `record` whose
    annotation is a `_KINDS` key, in field order."""
    kinds = record.__annotations__
    return tuple((name, _KEY_OF_FIELD.get(name, name), kinds[name])
                 for name in record._record_names if kinds[name] in _KINDS)


class _Section:
    """Typed reader for one INI section that tracks key consumption."""

    def __init__(self, name: str, values: dict[str, str]):
        self.name = name
        self._values = dict(values)
        self._seen: set[str] = set()

    def get(self, key: str, kind: str | None = "float", required: bool = False):
        """The value of `key` read as the annotation `kind` (a `_KINDS`
        key), its text for None, or None when the section leaves it out."""
        self._seen.add(key)
        if key not in self._values:
            if required:
                raise ConfigError(f"[{self.name}] missing required key {key!r}")
            return None
        raw = self._values[key]
        if kind is None:
            return raw
        read, what = _KINDS[kind]
        try:
            value = read(raw)
        except (KeyError, ValueError):
            raise ConfigError(
                f"[{self.name}] {key} = {raw!r} is not {what}") from None
        if kind == "float":
            _require_finite(f"[{self.name}]", **{key: value})
        return value

    def choice(self, key: str, parse, allowed, required: bool = False):
        """`parse` of the stripped, lower-cased value of `key`, or the value
        itself with `parse` None; None when the section leaves `key` out."""
        raw = self.get(key, None, required)
        if raw is None:
            return None
        raw = raw.strip().lower()
        # `allowed` lists the values the key takes; with no `parse`, it is a
        # tuple of names, whose `index` refuses any other value.
        try:
            return parse(raw) if parse else allowed[allowed.index(raw)]
        except ValueError:
            *rest, last = [getattr(value, "value", value) for value in allowed]
            raise ConfigError(f"[{self.name}] {key} must be {', '.join(rest)} "
                              f"or {last}, got {raw!r}") from None

    def has(self, key: str) -> bool:
        return key in self._values

    def fields(self, record) -> dict:
        """Keyword arguments of `record` for the `_ini_fields` this section
        sets, in field order; the other fields keep their defaults."""
        return {name: self.get(key, kind)
                for name, key, kind in _ini_fields(record) if self.has(key)}

    def check_consumed(self):
        extra = set(self._values) - self._seen
        if extra:
            raise ConfigError(
                f"[{self.name}] unknown key(s): {', '.join(sorted(extra))}"
            )


def _read_ini(path: str | Path) -> dict[str, _Section]:
    text = _read_text(path, "scenario")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text, source=str(path))
        # Reading a value expands its `%(key)s` references, so a stray `%`
        # or a reference to a missing key fails here, not while parsing.
        values = {name: dict(parser[name]) for name in parser.sections()}
    except configparser.InterpolationError as exc:
        raise ConfigError(f"scenario file {path}: [{exc.section}] "
                          f"{exc.option}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse scenario file: {exc}") from exc
    unknown = set(values) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown section(s): {', '.join(sorted(unknown))}")
    return {name: _Section(name, values.get(name, {})) for name in _SECTIONS}


# Per fiber kind: its parts builder, and the [fiber] attenuation keys and
# [components] insertion-loss keys that builder takes, in reading order.
_PARTS = {
    FiberKind.SMF: (_smf_parts, ("attenuation_quantum_db_per_km",
                                 "attenuation_classical_db_per_km"),
                    ("mux_il_db", "demux_il_db")),
    FiberKind.FMF: (_fmf_parts, ("attenuation_lp01_db_per_km",
                                 "attenuation_lp02_db_per_km"),
                    ("mux_il_lp01_db", "mux_il_lp02_db",
                     "demux_il_lp01_db", "demux_il_lp02_db")),
}


def _build_link(fiber: _Section, components: _Section) -> LinkPlan:
    kind = fiber.choice("kind", FiberKind, FiberKind, required=True)
    scheme = fiber.choice("scheme", MultiplexScheme.named, SchemeName,
                          required=True)
    parts, fiber_keys, loss_keys = _PARTS[kind]
    fiber_spec, mux_demux = parts(
        tuple(fiber.get(key, required=True) for key in fiber_keys),
        tuple(components.get(key, required=True) for key in loss_keys))

    paths = []
    for band in Band:   # quantum, then classical, as LinkPlan takes them
        extra = components.get(f"{band.value}_extra_il_db")
        paths.append(mux_demux + ((ComponentSpec(
            f"{band.value}-extra", {scheme.mode_for(band): extra},
            Side.TRANSMITTER),) if extra else ()))
    # A fiber kind that does not match the scheme fails here.
    return LinkPlan(fiber_spec, 0.0, scheme, *paths)


def _scenario_from(sections: dict[str, _Section], path: str | Path) -> Scenario:
    fiber, components = sections["fiber"], sections["components"]
    classical, quantum = sections["classical"], sections["quantum"]
    detector, raman = sections["detector"], sections["raman"]

    link = _build_link(fiber, components)

    intensities = DecoyIntensities(**quantum.fields(DecoyIntensities))
    protocol = ProtocolParams(**quantum.fields(ProtocolParams))
    det = DetectorSpec(**detector.fields(DetectorSpec))
    rho = RamanCoefficient(
        raman.get("coefficient_cps_per_mw_km", required=True),
        link.scheme.name,
    )
    raman_options = {field: value for field, value in (
        ("raman_alpha_basis",
         raman.choice("alpha_basis", Band, Band)),
        ("noise_divisor", raman.choice("noise_divisor", None, _NOISE_DIVISORS)),
    ) if value is not None}

    scenario = Scenario(
        name=Path(path).stem,
        link=link,
        raman=rho,
        detector=det,
        protocol=protocol,
        intensities=intensities,
        **classical.fields(Scenario),
        **raman_options,
    )

    for section in (fiber, components, classical, quantum, detector, raman):
        section.check_consumed()
    return scenario


def _sweep_from(sections: dict[str, _Section]) -> SweepSpec | None:
    sweep, keys, spec = sections["sweep"], SweepSpec._record_names, None
    if any(map(sweep.has, keys)):
        spec = SweepSpec(*[sweep.get(key, required=True) for key in keys])
    sweep.check_consumed()
    return spec


def _load_scenario_file(path: str | Path) -> tuple[Scenario, SweepSpec | None]:
    """Scenario and optional sweep of one INI file, read and parsed once."""
    sections = _read_ini(path)
    return _scenario_from(sections, path), _sweep_from(sections)


def load_scenario(path: str | Path) -> Scenario:
    """Load and fully validate a scenario from an INI file."""
    return _scenario_from(_read_ini(path), path)


def load_sweep(path: str | Path) -> SweepSpec | None:
    """Read the optional [sweep] section of a scenario file."""
    return _sweep_from(_read_ini(path))
