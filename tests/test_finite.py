"""Every float an input type takes must be finite.

A range check alone lets NaN through, because every comparison with NaN is
false, and an open upper bound lets an infinity through. Each case builds a
valid object with one float replaced by NaN or an infinity and expects a
ConfigError, so that the CLI exits 1 instead of printing a NaN row.
"""

import math
from dataclasses import replace

import pytest

from qkdcoex.decoy import (ChannelPoint, DecoyIntensities, DetectorSpec,
                           ProtocolParams)
from qkdcoex.errors import ConfigError
from qkdcoex.link import ComponentSpec, FiberSpec, IsolationTable, Mode, Side
from qkdcoex.presets import get_preset
from qkdcoex.raman import NoiseMeasurement, RamanCoefficient
from qkdcoex.scenario import (CalibrationReport, CalibrationTarget,
                              SweepSpec, evaluate_at)

_SMF = get_preset("smf")

# (label, function of the non-finite value that builds the object)
_CASES = [
    ("FiberSpec.attenuation", lambda v: FiberSpec.smf(quantum_db_per_km=v)),
    ("ComponentSpec.insertion_loss_db",
     lambda v: ComponentSpec("x", {Mode.FUNDAMENTAL: v}, Side.TRANSMITTER)),
    ("IsolationTable.distance",
     lambda v: IsolationTable(((v, 20.0),), ((0.0, 20.0),))),
    ("IsolationTable.isolation",
     lambda v: IsolationTable(((0.0, 20.0),), ((0.0, v),))),
    ("LinkPlan.length_km", lambda v: replace(_SMF.link, length_km=v)),
    ("RamanCoefficient.rho_cps_per_mw_km", lambda v: RamanCoefficient(v)),
    *[(f"NoiseMeasurement.{f}",
       lambda v, f=f: replace(NoiseMeasurement(1.0, 1.0, 1.0), **{f: v}))
      for f in ("distance_km", "fiber_input_power_mw", "measured_rate_cps")],
    *[(f"DecoyIntensities.{f}",
       lambda v, f=f: replace(DecoyIntensities(), **{f: v}))
      for f in ("mu", "nu", "omega", "p_mu", "p_nu", "p_omega")],
    *[(f"DetectorSpec.{f}", lambda v, f=f: replace(DetectorSpec(), **{f: v}))
      for f in ("efficiency", "gate_hz", "dark_count_per_gate")],
    *[(f"ProtocolParams.{f}",
       lambda v, f=f: replace(ProtocolParams(), **{f: v}))
      for f in ("clock_hz", "misalignment_error", "background_error",
                "ec_efficiency", "sifting_factor")],
    *[(f"ChannelPoint.{f}",
       lambda v, f=f: replace(ChannelPoint(0.5, 0.0), **{f: v}))
      for f in ("eta", "y0")],
    *[(f"Scenario.{f}", lambda v, f=f: replace(_SMF, **{f: v}))
      for f in ("classical_launch_power_dbm", "receiver_sensitivity_dbm")],
    *[(f"SweepSpec.{f}",
       lambda v, f=f: replace(SweepSpec(0.0, 10.0, 1.0), **{f: v}))
      for f in ("from_km", "to_km", "step_km")],
    *[(f"CalibrationTarget.{f}",
       lambda v, f=f: replace(CalibrationTarget(63.0, 2300.0, 0.04), **{f: v}))
      for f in ("distance_km", "key_rate_bps", "qber")],
    # The report's objective is left out: inf is its "not computed" default.
    *[(f"CalibrationReport.{f}",
       lambda v, f=f: replace(CalibrationReport(0.03, 1.2), **{f: v}))
      for f in ("misalignment_error", "ec_efficiency")],
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("build", [b for _, b in _CASES],
                         ids=[label for label, _ in _CASES])
def test_non_finite_float_rejected(build, value):
    with pytest.raises(ConfigError):
        build(value)


def test_overflowing_num_detectors_rejected():
    # Finite as an int, but Y0's dark-count term needs it as a float: the
    # detector is rejected when built, so no evaluation ever sees it.
    with pytest.raises(ConfigError, match="num_detectors is too large"):
        replace(_SMF.detector, num_detectors=10**400)
    wide = replace(_SMF, detector=replace(_SMF.detector, num_detectors=10**300))
    assert math.isfinite(evaluate_at(wide, 10.0).y0)


# An int is finite, but one beyond the float range raises OverflowError
# wherever float arithmetic meets it: each record rejects it when built.
_HUGE = 2**1100


@pytest.mark.parametrize("value", [_HUGE, -_HUGE],
                         ids=["2**1100", "-2**1100"])
@pytest.mark.parametrize("build", [b for _, b in _CASES],
                         ids=[label for label, _ in _CASES])
def test_int_beyond_float_range_rejected(build, value):
    with pytest.raises(ConfigError):
        build(value)


@pytest.mark.parametrize("build, message", [
    (lambda: SweepSpec(0, _HUGE, 1), "sweep to_km"),
    (lambda: DecoyIntensities(mu=_HUGE), "intensities mu"),
    (lambda: DetectorSpec(gate_hz=_HUGE), "detector gate_hz"),
    (lambda: DetectorSpec(num_detectors=-_HUGE), "detector num_detectors"),
    (lambda: ProtocolParams(clock_hz=_HUGE), "protocol clock_hz"),
    (lambda: ProtocolParams(block_size_bits=_HUGE),
     "protocol block_size_bits"),
], ids=["sweep", "intensities", "gate", "detectors", "clock", "block"])
def test_int_beyond_float_range_named(build, message):
    with pytest.raises(ConfigError) as exc:
        build()
    assert str(exc.value) == f"{message} is too large to convert to a float"
