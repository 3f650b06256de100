"""Built-in scenarios for the characterized SMF / two-mode FMF testbed and
its projected upgrades.

All presets share the 625 MHz polarization-encoding decoy-state BB84
transmitter (mu/nu/vacuum = 0.4/0.2/0 at 6:1:1), a bank of four gated
InGaAs detectors, a 100 Gbps classical data channel launched at -2.60 dBm
and a -33 dBm pre-amplified classical receiver.

The fig4-* family projects upgrades onto the lp02in scheme: adaptive
(minimum) classical launch power, then ultra-low-loss fiber and couplers,
then better detectors.
"""

from __future__ import annotations

from .decoy import DecoyIntensities, DetectorSpec, ProtocolParams
from .errors import ConfigError, _replace
from .link import (ComponentSpec, FiberSpec, IsolationTable, LinkPlan, Mode,
                   MultiplexScheme, SchemeName, Side)
from .raman import RamanCoefficient
from .scenario import CalibrationTarget, Scenario

# Measured modal isolation (dB) of the FMF plus mode MUX/DEMUX chain;
# back-to-back is recorded as 0 km.
FMF_MODAL_ISOLATION = IsolationTable(
    lp01_in=((0.0, 23.58), (25.0, 21.73), (50.0, 19.96), (75.0, 17.17),
             (100.0, 15.75)),
    lp02_in=((0.0, 23.20), (25.0, 19.25), (50.0, 14.75), (75.0, 12.59),
             (100.0, 10.35)),
)

# Lumped detected Raman coefficients per multiplexing scheme, cps/(mW km).
RAMAN_CPS_PER_MW_KM = {
    SchemeName.SMF: 12076.0,
    SchemeName.LP01_IN: 2637.0,
    SchemeName.LP02_IN: 2655.0,
}

# Insertion losses of the SMF link's 1546.92 nm DWDM mux and demux, dB.
DWDM_IL_DB = (0.49, 0.36)

# Projected upgrades: midpoints of the quoted ranges 0.16-0.17 dB/km and
# 0.36-0.49 dB, and the improved detector bank.
ULL_ATTENUATION_DB_PER_KM = 0.165
ULL_COUPLER_IL_DB = 0.425
IMPROVED_DETECTOR_EFFICIENCY = 0.20
IMPROVED_DARK_RATE_CPS = 230.0


# An empty `attenuation` keeps the defaults of `FiberSpec.smf` (or `.fmf`).
def _smf_parts(attenuation: tuple[float, ...] = (),
               dwdm_il: tuple[float, float] = DWDM_IL_DB,
               ) -> tuple[FiberSpec, tuple[ComponentSpec, ComponentSpec]]:
    """An SMF span's fiber, and its DWDM mux and demux in path order."""
    mux_il, demux_il = dwdm_il
    mux = ComponentSpec("dwdm-mux", {Mode.FUNDAMENTAL: mux_il}, Side.TRANSMITTER)
    demux = ComponentSpec("dwdm-demux", {Mode.FUNDAMENTAL: demux_il}, Side.RECEIVER)
    return FiberSpec.smf(*attenuation), (mux, demux)


def _fmf_parts(attenuation: tuple[float, ...] = (),
               coupler_il: tuple[float, float, float, float] = (2.60, 3.70, 2.30, 3.20),
               ) -> tuple[FiberSpec, tuple[ComponentSpec, ComponentSpec]]:
    """A two-mode FMF span's fiber, and its mode mux and demux in path order."""
    mux_lp01, mux_lp02, demux_lp01, demux_lp02 = coupler_il
    mux = ComponentSpec("mode-mux", {Mode.LP01: mux_lp01, Mode.LP02: mux_lp02},
                        Side.TRANSMITTER)
    demux = ComponentSpec("mode-demux", {Mode.LP01: demux_lp01, Mode.LP02: demux_lp02},
                          Side.RECEIVER)
    return FiberSpec.fmf(*attenuation), (mux, demux)


def _link(scheme: SchemeName, fiber: FiberSpec,
          components: tuple[ComponentSpec, ...]) -> LinkPlan:
    """A zero-length link whose two channels pass the same components."""
    return LinkPlan(fiber, 0.0, MultiplexScheme.named(scheme), components,
                    components)


def _baseline(name: str, link: LinkPlan) -> Scenario:
    scheme = link.scheme.name
    return Scenario(
        name=name,
        link=link,
        raman=RamanCoefficient(RAMAN_CPS_PER_MW_KM[scheme], scheme),
        detector=DetectorSpec(),
        protocol=ProtocolParams(),
        intensities=DecoyIntensities(),
    )


_LP02IN = _baseline("lp02in", _link(SchemeName.LP02_IN, *_fmf_parts()))
_FIG4_POWER = _replace(_LP02IN, name="fig4-power", adaptive_power=True)
_FIG4_POWER_FMF = _replace(_FIG4_POWER, name="fig4-power-fmf", link=_link(
    SchemeName.LP02_IN, *_fmf_parts(attenuation=(ULL_ATTENUATION_DB_PER_KM,) * 2,
                                    coupler_il=(ULL_COUPLER_IL_DB,) * 4)))
_FIG4_FULL = _replace(_FIG4_POWER_FMF, name="fig4-full", detector=_replace(
    _FIG4_POWER_FMF.detector, efficiency=IMPROVED_DETECTOR_EFFICIENCY,
    dark_count_per_gate=(IMPROVED_DARK_RATE_CPS
                         / _FIG4_POWER_FMF.detector.gate_hz)))

_PRESETS = {scenario.name: scenario for scenario in (
    _baseline("smf", _link(SchemeName.SMF, *_smf_parts())),
    _baseline("lp01in", _link(SchemeName.LP01_IN, *_fmf_parts())),
    _LP02IN, _FIG4_POWER, _FIG4_POWER_FMF, _FIG4_FULL,
)}

PRESET_SUMMARIES = {
    "smf": "single-mode baseline; quantum and classical share the fundamental "
           "mode through 1546.92 nm DWDMs ({:g}/{:g} dB)".format(*DWDM_IL_DB),
    "lp01in": "two-mode FMF; classical on LP01, quantum on LP02 through mode "
              "couplers",
    "lp02in": "two-mode FMF; classical on LP02, quantum on LP01 through mode "
              "couplers",
    "fig4-power": "lp02in with adaptive minimum classical launch power",
    "fig4-power-fmf": f"fig4-power plus {ULL_ATTENUATION_DB_PER_KM:g} dB/km "
                      f"fiber and {ULL_COUPLER_IL_DB:g} dB couplers",
    "fig4-full": f"fig4-power-fmf plus {IMPROVED_DETECTOR_EFFICIENCY:.0%} "
                 f"efficiency / {IMPROVED_DARK_RATE_CPS:g} cps dark detectors",
}


def preset_names() -> tuple[str, ...]:
    return tuple(_PRESETS)


def get_preset(name: str) -> Scenario:
    """The named preset: one shared, immutable instance, built at import.
    Derive a variant with `dataclasses.replace`; writing to a spec's map
    (a fiber's attenuations, a component's insertion losses) raises
    TypeError."""
    try:
        return _PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(_PRESETS)}"
        ) from None


# Reference operating points (distance, real-time secure key rate, QBER)
# used as calibration targets for the shared free parameters (misalignment
# error, error-correction efficiency).
REFERENCE_TARGETS: tuple[tuple[str, CalibrationTarget], ...] = (
    ("smf", CalibrationTarget(63.0, 2300.0, 0.040)),
    ("lp01in", CalibrationTarget(65.0, 1200.0, 0.038)),
    ("lp02in", CalibrationTarget(86.0, 1300.0, 0.037)),
)
