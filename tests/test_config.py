"""Defaults of scenario files.

A key a file leaves out takes the default of its dataclass field: an INI
that sets only the mandatory keys loads the dataclass defaults, and one
optional key changes only its own field. The link comes from the preset
link builders.
"""

import configparser
import re
from dataclasses import MISSING, fields, replace

import pytest

from qkdcoex import config
from qkdcoex.decoy import DecoyIntensities, DetectorSpec, ProtocolParams
from qkdcoex.errors import ConfigError
from qkdcoex.link import (Band, ComponentSpec, FiberSpec, LinkPlan, Mode,
                          MultiplexScheme, Side)
from qkdcoex.presets import get_preset
from qkdcoex.scenario import Scenario

MANDATORY = {
    "smf": """
[fiber]
kind = smf
scheme = smf
attenuation_quantum_db_per_km = 0.190
attenuation_classical_db_per_km = 0.192

[components]
mux_il_db = 0.49
demux_il_db = 0.36

[raman]
coefficient_cps_per_mw_km = 12076
""",
    "fmf": """
[fiber]
kind = fmf
scheme = lp02in
attenuation_lp01_db_per_km = 0.226
attenuation_lp02_db_per_km = 0.257

[components]
mux_il_lp01_db = 2.60
mux_il_lp02_db = 3.70
demux_il_lp01_db = 2.30
demux_il_lp02_db = 3.20

[raman]
coefficient_cps_per_mw_km = 2655
""",
}

# (section, key, INI value, Scenario field or (field, nested field), value)
OPTIONAL = [
    ("quantum", "mu", "0.5", ("intensities", "mu"), 0.5),
    ("quantum", "nu", "0.1", ("intensities", "nu"), 0.1),
    ("quantum", "omega", "0", ("intensities", "omega"), 0.0),
    ("quantum", "p_mu", "0.750", ("intensities", "p_mu"), 0.75),
    ("quantum", "p_nu", "0.125", ("intensities", "p_nu"), 0.125),
    ("quantum", "p_omega", "0.125", ("intensities", "p_omega"), 0.125),
    ("quantum", "clock_hz", "1e9", ("protocol", "clock_hz"), 1e9),
    ("quantum", "misalignment_error", "0.01",
     ("protocol", "misalignment_error"), 0.01),
    ("quantum", "background_error", "0.5",
     ("protocol", "background_error"), 0.5),
    ("quantum", "error_correction_efficiency", "1.3",
     ("protocol", "ec_efficiency"), 1.3),
    ("quantum", "sifting_factor", "0.9", ("protocol", "sifting_factor"), 0.9),
    ("quantum", "block_size_bits", "1000",
     ("protocol", "block_size_bits"), 1000),
    ("detector", "efficiency", "0.2", ("detector", "efficiency"), 0.2),
    ("detector", "gate_hz", "1e9", ("detector", "gate_hz"), 1e9),
    ("detector", "dark_count_per_gate", "1e-6",
     ("detector", "dark_count_per_gate"), 1e-6),
    ("detector", "num_detectors", "2", ("detector", "num_detectors"), 2),
    ("classical", "launch_power_dbm", "0", "classical_launch_power_dbm", 0.0),
    ("classical", "adaptive_power", "yes", "adaptive_power", True),
    ("classical", "receiver_sensitivity_dbm", "-28",
     "receiver_sensitivity_dbm", -28.0),
    ("raman", "alpha_basis", "Classical", "raman_alpha_basis", Band.CLASSICAL),
    ("raman", "noise_divisor", "GATE", "noise_divisor", "gate"),
]


def _load(tmp_path, text):
    path = tmp_path / "s.ini"
    path.write_text(text, encoding="utf-8")
    return config._load_scenario_file(path)


@pytest.mark.parametrize("kind", sorted(MANDATORY))
def test_mandatory_keys_only_give_dataclass_defaults(kind, tmp_path):
    scenario, sweep = _load(tmp_path, MANDATORY[kind])
    assert sweep is None
    # repr also pins the types: 4 detectors, not 4.0
    assert repr(scenario.intensities) == repr(DecoyIntensities())
    assert repr(scenario.protocol) == repr(ProtocolParams())
    assert repr(scenario.detector) == repr(DetectorSpec())
    for f in fields(Scenario):
        if f.default is not MISSING:
            assert repr(getattr(scenario, f.name)) == repr(f.default), f.name


@pytest.mark.parametrize("kind, preset", [("smf", "smf"), ("fmf", "lp02in")])
def test_mandatory_keys_build_the_preset_link(kind, preset, tmp_path):
    # INI links come from the preset builders, component names included.
    scenario, _ = _load(tmp_path, MANDATORY[kind])
    assert repr(scenario.link) == repr(get_preset(preset).link)


@pytest.mark.parametrize("kind, scheme, needs", [
    ("smf", "lp01in", "FMF"), ("fmf", "smf", "SMF")])
def test_fiber_kind_and_scheme_must_agree(kind, scheme, needs, tmp_path):
    text = re.sub(r"scheme = \w+", f"scheme = {scheme}", MANDATORY[kind])
    with pytest.raises(ConfigError,
                       match=f"scheme {scheme} requires an {needs} link"):
        _load(tmp_path, text)


def _direct_link(kind, scheme_name):
    """The LinkPlan of MANDATORY[kind] with `scheme_name` and 1.5 dB and
    0.25 dB of extra loss on the quantum and classical paths, built here."""
    scheme = MultiplexScheme.named(scheme_name)
    if kind == "smf":
        fiber = FiberSpec.smf(0.190, 0.192)
        mux = ComponentSpec("dwdm-mux", {Mode.FUNDAMENTAL: 0.49}, Side.TRANSMITTER)
        demux = ComponentSpec("dwdm-demux", {Mode.FUNDAMENTAL: 0.36}, Side.RECEIVER)
    else:
        fiber = FiberSpec.fmf(0.226, 0.257)
        mux = ComponentSpec("mode-mux", {Mode.LP01: 2.60, Mode.LP02: 3.70},
                            Side.TRANSMITTER)
        demux = ComponentSpec("mode-demux", {Mode.LP01: 2.30, Mode.LP02: 3.20},
                              Side.RECEIVER)
    return LinkPlan(fiber, 0.0, scheme, (mux, demux, ComponentSpec(
        "quantum-extra", {scheme.quantum_mode: 1.5}, Side.TRANSMITTER)),
        (mux, demux, ComponentSpec(
            "classical-extra", {scheme.classical_mode: 0.25}, Side.TRANSMITTER)))


@pytest.mark.parametrize("kind, scheme", [
    ("smf", "smf"), ("fmf", "lp01in"), ("fmf", "lp02in")])
def test_extra_components_join_a_link_built_once(kind, scheme, tmp_path,
                                                 monkeypatch):
    text = re.sub(r"scheme = \w+", f"scheme = {scheme}", MANDATORY[kind]).replace(
        "[components]\n", "[components]\nquantum_extra_il_db = 1.5\n"
                          "classical_extra_il_db = 0.25\n")
    expected = _direct_link(kind, scheme)
    built, post_init = [], LinkPlan.__post_init__

    def counted(link):
        built.append(link)
        post_init(link)

    monkeypatch.setattr(LinkPlan, "__post_init__", counted)
    scenario, _ = _load(tmp_path, text)
    assert scenario.link == expected
    assert repr(scenario.link) == repr(expected)
    assert built == [scenario.link]


@pytest.mark.parametrize("section, key, raw, target, value", OPTIONAL,
                         ids=[key for _, key, *_ in OPTIONAL])
def test_one_optional_key_changes_only_its_field(section, key, raw, target,
                                                 value, tmp_path):
    base, _ = _load(tmp_path, MANDATORY["smf"])
    # A section may appear only once: a [raman] key joins the mandatory one.
    text = MANDATORY["smf"] + (f"{key} = {raw}\n" if section == "raman"
                               else f"\n[{section}]\n{key} = {raw}\n")
    scenario, _ = _load(tmp_path, text)
    if isinstance(target, tuple):
        outer, inner = target
        expected = replace(base, **{outer: replace(getattr(base, outer),
                                                   **{inner: value})})
    else:
        expected = replace(base, **{target: value})
    assert repr(scenario) == repr(expected)


def test_misspelled_sweep_section_rejected(tmp_path):
    # Only misspelled keys: no sweep key is read, yet none may pass unseen.
    path = tmp_path / "s.ini"
    path.write_text(MANDATORY["smf"] + "\n[sweep]\nto_kms = 5\n",
                    encoding="utf-8")
    with pytest.raises(ConfigError,
                       match=re.escape("[sweep] unknown key(s): to_kms")):
        config.load_sweep(path)


def _with(section, line):
    """MANDATORY["smf"] with one more line in `section`, which may be one
    the file already has."""
    text = MANDATORY["smf"]
    if f"[{section}]\n" in text:
        return text.replace(f"[{section}]\n", f"[{section}]\n{line}\n")
    return text + f"\n[{section}]\n{line}\n"


# (test id, file, exact ConfigError message)
REJECTED = [
    ("mu", _with("quantum", "mu = abc"), "[quantum] mu = 'abc' is not a number"),
    ("mu-nan", _with("quantum", "mu = nan"), "[quantum] mu must be finite, got nan"),
    ("block_size_bits", _with("quantum", "block_size_bits = 1.5"),
     "[quantum] block_size_bits = '1.5' is not an integer"),
    ("num_detectors", _with("detector", "num_detectors = x"),
     "[detector] num_detectors = 'x' is not an integer"),
    ("adaptive_power", _with("classical", "adaptive_power = maybe"),
     "[classical] adaptive_power = 'maybe' is not a boolean"),
    ("kind", MANDATORY["smf"].replace("kind = smf", "kind = xmf"),
     "[fiber] kind must be smf or fmf, got 'xmf'"),
    ("scheme", MANDATORY["smf"].replace("scheme = smf", "scheme = lp03in"),
     "[fiber] scheme must be smf, lp01in or lp02in, got 'lp03in'"),
    ("alpha_basis", _with("raman", "alpha_basis = pump"),
     "[raman] alpha_basis must be quantum or classical, got 'pump'"),
    # The divisor is read against Scenario's table of divisor names.
    ("noise_divisor", _with("raman", "noise_divisor = pulse"),
     "[raman] noise_divisor must be clock or gate, got 'pulse'"),
]


@pytest.mark.parametrize("text, message", [case[1:] for case in REJECTED],
                         ids=[key for key, *_ in REJECTED])
def test_rejected_value_message(text, message, tmp_path):
    with pytest.raises(ConfigError) as exc:
        _load(tmp_path, text)
    assert str(exc.value) == message


def test_repeated_section_message(tmp_path):
    text = MANDATORY["smf"] + "\n[fiber]\nkind = smf\n"
    line = text.count("\n") - 1
    with pytest.raises(ConfigError) as exc:
        _load(tmp_path, text)
    assert str(exc.value) == (
        f"cannot parse scenario file: While reading from "
        f"{str(tmp_path / 's.ini')!r} [line {line:2d}]: "
        f"section 'fiber' already exists")


# A value is `%`-interpolated when it is read: a stray `%` or a reference
# to a missing key is a ConfigError naming the file and the key.
@pytest.mark.parametrize("text, section, key, detail", [
    (_with("classical", "launch_power_dbm = -2.6%"), "classical",
     "launch_power_dbm", "'%' must be followed by '%' or '('"),
    (MANDATORY["smf"].replace("attenuation_classical_db_per_km = 0.192",
                              "attenuation_classical_db_per_km = %(x)s"),
     "fiber", "attenuation_classical_db_per_km",
     "contains an interpolation key 'x' which is not a valid option name"),
], ids=["stray_percent", "missing_reference"])
def test_bad_interpolation_message(text, section, key, detail, tmp_path):
    with pytest.raises(ConfigError) as exc:
        _load(tmp_path, text)
    message = str(exc.value)
    assert message.startswith(
        f"scenario file {tmp_path / 's.ini'}: [{section}] {key}: "), message
    assert detail in message


def test_valid_interpolation_is_kept(tmp_path):
    text = MANDATORY["smf"].replace(
        "attenuation_classical_db_per_km = 0.192",
        "attenuation_classical_db_per_km = %(attenuation_quantum_db_per_km)s")
    scenario, _ = _load(tmp_path, text)
    expected, _ = _load(tmp_path, MANDATORY["smf"].replace("0.192", "0.190"))
    assert repr(scenario) == repr(expected)


@pytest.mark.parametrize("text, canonical", [
    (_with("classical", "adaptive_power = ON"),
     _with("classical", "adaptive_power = true")),
    (MANDATORY["smf"].replace("kind = smf", "kind =  SMF "), MANDATORY["smf"]),
    (MANDATORY["fmf"].replace("scheme = lp02in", "scheme = LP02-In"),
     MANDATORY["fmf"]),
    (_with("detector", "num_detectors =  3 "),
     _with("detector", "num_detectors = 3")),
    # numbers are read with float() and int()
    (_with("quantum", "block_size_bits = 1_000"),
     _with("quantum", "block_size_bits = 1000")),
    (_with("quantum", "mu = 0.4_5"), _with("quantum", "mu = 0.45")),
    (_with("detector", "num_detectors = \uff14"),
     _with("detector", "num_detectors = 4")),
], ids=["adaptive_power", "kind", "scheme", "num_detectors",
        "underscore_int", "underscore_float", "full_width_digit"])
def test_accepted_spellings(text, canonical, tmp_path):
    scenario, _ = _load(tmp_path, text)
    assert repr(scenario) == repr(_load(tmp_path, canonical)[0])


# Booleans are read with configparser's own table of spellings, whatever
# their case and surrounding blanks.
@pytest.mark.parametrize("spelling, value", sorted(
    configparser.ConfigParser.BOOLEAN_STATES.items()))
def test_every_boolean_spelling(spelling, value, tmp_path):
    text = _with("classical", f"adaptive_power =  {spelling.title()} ")
    scenario, _ = _load(tmp_path, text)
    assert scenario.adaptive_power is value


# distutils' strtobool took these; configparser does not.
@pytest.mark.parametrize("spelling", ["y", "t"])
def test_refused_boolean_spelling(spelling, tmp_path):
    with pytest.raises(ConfigError) as exc:
        _load(tmp_path, _with("classical", f"adaptive_power = {spelling}"))
    assert str(exc.value) == (f"[classical] adaptive_power = {spelling!r} "
                              f"is not a boolean")


@pytest.mark.parametrize("keys, missing", [
    ("from_km = 0", "to_km"), ("from_km = 0\nto_km = 5", "step_km"),
    ("step_km = 1", "from_km")])
def test_partial_sweep_names_first_missing_key(keys, missing, tmp_path):
    path = tmp_path / "s.ini"
    path.write_text(MANDATORY["smf"] + f"\n[sweep]\n{keys}\n",
                    encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        config.load_sweep(path)
    assert str(exc.value) == f"[sweep] missing required key {missing!r}"


@pytest.mark.parametrize("kind, scheme", [
    ("smf", "smf"), ("fmf", "lp01in"), ("fmf", "lp02in")])
@pytest.mark.parametrize("band", list(Band))
def test_extra_loss_joins_its_own_path_only(kind, scheme, band, tmp_path):
    text = re.sub(r"scheme = \w+", f"scheme = {scheme}", MANDATORY[kind]).replace(
        "[components]\n", f"[components]\n{band.value}_extra_il_db = 1.5\n")
    scenario, _ = _load(tmp_path, text)
    plain = _direct_link(kind, scheme)
    quantum, classical = (plain.quantum_path_components[:2],
                          plain.classical_path_components[:2])
    extra = (ComponentSpec(f"{band.value}-extra",
                           {plain.scheme.mode_for(band): 1.5}, Side.TRANSMITTER),)
    if band is Band.QUANTUM:
        quantum += extra
    else:
        classical += extra
    assert scenario.link == replace(plain, quantum_path_components=quantum,
                                    classical_path_components=classical)
