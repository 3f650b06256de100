"""Every public constructor, step function and evaluator of `decoy`, `link`,
`raman` and `scenario` has two outcomes on any int or float it takes: a
finite result, or a `QkdCoexError`. A NaN or an infinity that comes back,
and any other exception, is a bug.

Each float argument is either a valid value or one drawn from the extremes
(NaN, the infinities, the signed zeros, the smallest subnormals, a value
near the float maximum, ints beyond the float range) or from ordinary
values. Those ints are also put, one at a time, into each argument of
otherwise valid calls, as the drawn examples are derandomized and need not
reach every argument. Structured arguments (a link, a scenario) are built
from drawn floats too, so their constructors are part of the call. The
record types that only hold results (`KeyRateBreakdown`, `DistanceResult`,
`ChannelState`, `ResultRow`, `TargetResidual`) are left out, and so is
`calibrate`, which `tests/test_scenario.py` already runs on extreme
targets. Sweeps and
searches draw their ranges (and a search its resolution) but keep a fixed
grid step, so no example builds a grid of a million points.
"""

import dataclasses
import math
from collections.abc import Mapping
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from qkdcoex import FMF_MODAL_ISOLATION, get_preset
from qkdcoex.decoy import (ChannelPoint, DecoyIntensities, DetectorSpec,
                           ProtocolParams, background_yield, binary_entropy,
                           dbm_to_mw, e1_upper_bound, find_rate_cliff,
                           gain_and_qber, key_rate_details,
                           max_secure_distance_km, mw_to_dbm,
                           secure_key_rate_bps, y1_lower_bound)
from qkdcoex.errors import DomainError, QkdCoexError
from qkdcoex.link import (Band, ComponentSpec, FiberSpec, IsolationTable,
                          LinkPlan, Mode, MultiplexScheme, SchemeName, Side,
                          classical_min_launch_power_dbm, modal_isolation_at,
                          total_loss_db, transmittance)
from qkdcoex.raman import (NoiseMeasurement, RamanCoefficient,
                           coefficient_suppression, detected_count_suppression,
                           fit_raman_coefficient, noise_prob_per_pulse,
                           peak_noise_distance_km, srs_noise_rate_cps)
from qkdcoex.scenario import (CalibrationReport, CalibrationTarget, SweepSpec,
                              apply_calibration, channel_state, evaluate_at,
                              launch_power_dbm, max_secure_distance, run_sweep)

# Ints that no float holds: converting one raises OverflowError.
_HUGE = {"2**1100": 2**1100, "-2**1100": -2**1100, "10**400": 10**400}
_EXTREMES = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
             1.7e308, *_HUGE.values())
_FLOAT = st.one_of(st.sampled_from(_EXTREMES), st.floats(-400.0, 400.0))


def _link(length_km, alpha_q, alpha_c, il_q, il_c):
    return LinkPlan(
        FiberSpec.smf(alpha_q, alpha_c), length_km, MultiplexScheme.named("smf"),
        (ComponentSpec("mux", {Mode.FUNDAMENTAL: il_q}, Side.TRANSMITTER),),
        (ComponentSpec("demux", {Mode.FUNDAMENTAL: il_c}, Side.RECEIVER),))


_LINK = (50.0, 0.19, 0.192, 0.49, 0.36)


def _scenario(preset, launch_dbm, sensitivity_dbm):
    return replace(get_preset(preset), classical_launch_power_dbm=launch_dbm,
                   receiver_sensitivity_dbm=sensitivity_dbm)


def _key_args(fn):
    return lambda eta, y0, mu, nu, ed, f: fn(
        ChannelPoint(eta, y0), DecoyIntensities(mu, nu),
        ProtocolParams(misalignment_error=ed, ec_efficiency=f))


_KEY = (0.01, 1e-6, 0.4, 0.2, 0.033, 1.16)

# name -> (function of floats, a valid value for each float)
_SURFACE = {
    # decoy
    "DecoyIntensities": (DecoyIntensities, (0.4, 0.2, 0.0, 0.75, 0.125, 0.125)),
    "DetectorSpec": (DetectorSpec, (0.1, 1.25e9, 3e-7)),
    "ProtocolParams": (ProtocolParams, (625e6, 0.033, 0.5, 1.16, 0.5)),
    "ChannelPoint": (ChannelPoint, (0.01, 1e-6)),
    "binary_entropy": (binary_entropy, (0.11,)),
    "gain_and_qber": (
        lambda intensity, eta, y0, ed: gain_and_qber(
            intensity, ChannelPoint(eta, y0),
            ProtocolParams(misalignment_error=ed)),
        (0.4, 0.01, 1e-6, 0.033)),
    "y1_lower_bound": (
        lambda q_mu, q_nu, mu, nu, y0: y1_lower_bound(
            q_mu, q_nu, DecoyIntensities(mu, nu), y0),
        (0.004, 0.002, 0.4, 0.2, 1e-6)),
    "e1_upper_bound": (e1_upper_bound, (0.002, 0.035, 0.2, 0.009, 1e-6, 0.5)),
    "key_rate_details": (_key_args(key_rate_details), _KEY),
    "secure_key_rate_bps": (_key_args(secure_key_rate_bps), _KEY),
    "background_yield": (
        lambda dark, clock_hz, noise, divisor: background_yield(
            DetectorSpec(dark_count_per_gate=dark),
            ProtocolParams(clock_hz=clock_hz), noise, divisor),
        (3e-7, 625e6, 1e4, 1.25e9)),
    "dbm_to_mw": (dbm_to_mw, (-2.6,)),
    "mw_to_dbm": (mw_to_dbm, (0.55,)),
    "find_rate_cliff": (
        lambda from_km, to_km, resolution_km: find_rate_cliff(
            lambda d: 100.3 - d, from_km, to_km, 1.0, resolution_km),
        (0.0, 300.0, 0.01)),
    "max_secure_distance_km": (
        lambda from_km, to_km, resolution_km: max_secure_distance_km(
            lambda d: ChannelPoint(transmittance(0.2 * d) * 0.1, 1e-6),
            DecoyIntensities(), ProtocolParams(), (from_km, to_km), 1.0,
            resolution_km),
        (0.0, 300.0, 0.01)),
    # link
    "FiberSpec.smf": (FiberSpec.smf, (0.19, 0.192)),
    "FiberSpec.fmf": (FiberSpec.fmf, (0.226, 0.257)),
    "ComponentSpec": (
        lambda il: ComponentSpec("mux", {Mode.FUNDAMENTAL: il},
                                 Side.TRANSMITTER),
        (0.49,)),
    "IsolationTable": (
        lambda d0, iso0, d1, iso1: IsolationTable(((d0, iso0), (d1, iso1)),
                                                  ((0.0, 20.0),)),
        (0.0, 25.0, 10.0, 20.0)),
    "LinkPlan": (_link, _LINK),
    "total_loss_db[quantum]": (
        lambda *a: total_loss_db(_link(*a), Band.QUANTUM), _LINK),
    "total_loss_db[classical]": (
        lambda *a: total_loss_db(_link(*a), Band.CLASSICAL), _LINK),
    "transmittance": (transmittance, (10.0,)),
    "modal_isolation_at[lp01in]": (
        lambda d: modal_isolation_at(FMF_MODAL_ISOLATION, SchemeName.LP01_IN,
                                     d),
        (10.0,)),
    "modal_isolation_at[lp02in]": (
        lambda d: modal_isolation_at(FMF_MODAL_ISOLATION, SchemeName.LP02_IN,
                                     d),
        (10.0,)),
    "classical_min_launch_power_dbm": (
        lambda sensitivity, *a: classical_min_launch_power_dbm(_link(*a),
                                                               sensitivity),
        (-33.0, *_LINK)),
    # raman
    "RamanCoefficient": (RamanCoefficient, (12076.0,)),
    "NoiseMeasurement": (NoiseMeasurement, (10.0, 0.5, 9000.0)),
    "srs_noise_rate_cps": (
        lambda power, rho, d, alpha: srs_noise_rate_cps(
            power, RamanCoefficient(rho), d, alpha),
        (0.55, 12076.0, 50.0, 0.19)),
    "noise_prob_per_pulse": (noise_prob_per_pulse, (1e4, 625e6)),
    "peak_noise_distance_km": (peak_noise_distance_km, (0.19,)),
    "fit_raman_coefficient": (
        lambda d, power, rate, alpha: fit_raman_coefficient(
            [NoiseMeasurement(d, power, rate),
             NoiseMeasurement(25.0, 0.5, 13000.0)], alpha),
        (10.0, 0.5, 9000.0, 0.2)),
    "coefficient_suppression": (
        lambda smf, a, b: coefficient_suppression(smf, [a, b]),
        (12076.0, 2637.0, 2655.0)),
    "detected_count_suppression": (
        lambda rho, alpha, rho_f, alpha_f, d: detected_count_suppression(
            (rho, alpha), [(rho_f, alpha_f)], [d]),
        (12076.0, 0.19, 2637.0, 0.226, 50.0)),
    # scenario
    "CalibrationTarget": (CalibrationTarget, (63.0, 2300.0, 0.04)),
    "CalibrationReport": (
        lambda ed, f: CalibrationReport(ed, f, objective=0.0), (0.03, 1.2)),
    "SweepSpec": (SweepSpec, (0.0, 300.0, 0.01)),
    "apply_calibration": (
        lambda ed, f: apply_calibration(get_preset("smf"), ed, f),
        (0.03, 1.2)),
}
for _preset in ("smf", "fig4-full"):
    _SURFACE.update({
        f"Scenario[{_preset}]": (
            lambda launch, sens, p=_preset: _scenario(p, launch, sens),
            (-2.6, -33.0)),
        f"evaluate_at[{_preset}]": (
            lambda launch, sens, d, p=_preset: evaluate_at(
                _scenario(p, launch, sens), d),
            (-2.6, -33.0, 50.0)),
        f"channel_state[{_preset}]": (
            lambda launch, sens, d, p=_preset: channel_state(
                _scenario(p, launch, sens), d),
            (-2.6, -33.0, 50.0)),
        f"launch_power_dbm[{_preset}]": (
            lambda launch, sens, d, p=_preset: launch_power_dbm(
                _scenario(p, launch, sens), d),
            (-2.6, -33.0, 50.0)),
        f"run_sweep[{_preset}]": (
            lambda launch, sens, from_km, to_km, p=_preset: run_sweep(
                _scenario(p, launch, sens), SweepSpec(from_km, to_km, 7.0)),
            (-2.6, -33.0, 0.0, 300.0)),
        f"max_secure_distance[{_preset}]": (
            lambda launch, sens, from_km, to_km, res, p=_preset:
                max_secure_distance(_scenario(p, launch, sens), from_km,
                                    to_km, resolution_km=res),
            (-2.6, -33.0, 0.0, 300.0, 0.01)),
        f"max_secure_distance[{_preset}, rate only]": (
            lambda launch, sens, from_km, to_km, res, p=_preset:
                max_secure_distance(_scenario(p, launch, sens), from_km,
                                    to_km, require_classical_feasible=False,
                                    resolution_km=res),
            (-2.6, -33.0, 0.0, 300.0, 0.01)),
    })


def _floats(value):
    """The floats in a result: itself, or those inside a tuple, list,
    mapping or dataclass."""
    if isinstance(value, float):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _floats(item)
    elif isinstance(value, Mapping):
        yield from _floats(list(value.values()))
    elif dataclasses.is_dataclass(value):
        yield from _floats(list(vars(value).values()))


@pytest.mark.parametrize("name", sorted(_SURFACE))
@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_finite_result_or_package_error(name, data):
    fn, valid = _SURFACE[name]
    args = [data.draw(st.one_of(st.just(v), _FLOAT), label=f"arg {i}")
            for i, v in enumerate(valid)]
    try:
        result = fn(*args)
    except QkdCoexError:
        return
    bad = [v for v in _floats(result) if not math.isfinite(v)]
    assert not bad, (name, args, result)


@pytest.mark.parametrize("name, position, label", [
    (name, position, label) for name in sorted(_SURFACE)
    for position in range(len(_SURFACE[name][1])) for label in _HUGE])
def test_int_beyond_float_range_in_each_argument(name, position, label):
    fn, valid = _SURFACE[name]
    args = list(valid)
    args[position] = _HUGE[label]
    try:
        result = fn(*args)
    except QkdCoexError:
        return
    bad = [v for v in _floats(result) if not math.isfinite(v)]
    assert not bad, (name, args, result)


# Calls that returned NaN or inf, or never returned, before their functions
# checked their inputs; each is now a DomainError.
_NON_FINITE_BEFORE = {
    "mw_to_dbm(nan)": lambda: mw_to_dbm(math.nan),
    "mw_to_dbm(inf)": lambda: mw_to_dbm(math.inf),
    "dbm_to_mw(nan)": lambda: dbm_to_mw(math.nan),
    "dbm_to_mw(inf)": lambda: dbm_to_mw(math.inf),
    "transmittance(nan)": lambda: transmittance(math.nan),
    "gain_and_qber(nan)": lambda: gain_and_qber(
        math.nan, ChannelPoint(0.01, 1e-6), ProtocolParams()),
    "gain_and_qber(inf) on a dead channel": lambda: gain_and_qber(
        math.inf, ChannelPoint(0.0, 1e-6), ProtocolParams()),
    "y1_lower_bound(inf, inf)": lambda: y1_lower_bound(
        math.inf, math.inf, DecoyIntensities(), 1e-6),
    "e1_upper_bound(y1_lower=nan)": lambda: e1_upper_bound(
        0.002, 0.035, 0.2, math.nan, 1e-6),
    "peak_noise_distance_km(nan)": lambda: peak_noise_distance_km(math.nan),
    "peak_noise_distance_km(5e-324)": lambda: peak_noise_distance_km(5e-324),
    "coefficient_suppression(inf, [inf])": lambda: coefficient_suppression(
        math.inf, [math.inf]),
    "modal_isolation_at(nan)": lambda: modal_isolation_at(
        FMF_MODAL_ISOLATION, SchemeName.LP01_IN, math.nan),
    "classical_min_launch_power_dbm(inf)": lambda:
        classical_min_launch_power_dbm(_link(*_LINK), math.inf),
    "total_loss_db overflow": lambda: total_loss_db(
        _link(1.7e308, 0.19, 0.192, 1.7e308, 0.36), Band.QUANTUM),
    "channel_state power floor overflow": lambda: channel_state(
        _scenario("smf", -2.6, 1.7e308), 1.7e308),
    "find_rate_cliff below float resolution": lambda: find_rate_cliff(
        lambda d: 100.3 - d, 0.0, 300.0, 1.0, 5e-324),
}


@pytest.mark.parametrize("call", list(_NON_FINITE_BEFORE.values()),
                         ids=list(_NON_FINITE_BEFORE))
def test_non_finite_result_is_domain_error(call):
    with pytest.raises(DomainError):
        call()


_BIG = _HUGE["2**1100"]
_SMF = get_preset("smf")
# Calls that let OverflowError escape (or, for e1_upper_bound, blamed the
# bound) before each function checked its numbers: each is now a
# DomainError that names the argument.
_OVERFLOWED_BEFORE = {
    "evaluate_at": (lambda: evaluate_at(_SMF, _BIG), "scenario distance_km"),
    "channel_state": (lambda: channel_state(_SMF, _BIG),
                      "scenario distance_km"),
    "launch_power_dbm": (lambda: launch_power_dbm(_SMF, -_BIG),
                         "scenario distance_km"),
    "transmittance": (lambda: transmittance(_BIG), "transmittance loss_db"),
    "classical_min_launch_power_dbm": (
        lambda: classical_min_launch_power_dbm(_link(*_LINK), -_BIG),
        "classical_min_launch_power_dbm receiver_sensitivity_dbm"),
    "srs_noise_rate_cps": (
        lambda: srs_noise_rate_cps(1.0, RamanCoefficient(1.0), 1.0, _BIG),
        "srs_noise_rate_cps alpha_db_per_km"),
    "noise_prob_per_pulse": (lambda: noise_prob_per_pulse(1e4, 10**400),
                             "noise_prob_per_pulse clock_hz"),
    "peak_noise_distance_km": (lambda: peak_noise_distance_km(_BIG),
                               "peak_noise_distance_km alpha_db_per_km"),
    "coefficient_suppression": (
        lambda: coefficient_suppression(1.0, [10**400]),
        "coefficient_suppression rho_fmf"),
    "detected_count_suppression": (
        lambda: detected_count_suppression((12076.0, 0.19), [(2637.0, 0.226)],
                                           [_BIG]),
        "detected_count_suppression distances_km"),
    "gain_and_qber": (
        lambda: gain_and_qber(_BIG, ChannelPoint(0.01, 1e-6), ProtocolParams()),
        "gain_and_qber intensity"),
    "y1_lower_bound": (
        lambda: y1_lower_bound(0.004, 0.002, DecoyIntensities(), -_BIG),
        "y1_lower_bound y0"),
    "background_yield": (
        lambda: background_yield(DetectorSpec(), ProtocolParams(), _BIG),
        "background_yield noise_rate_cps"),
    "e1_upper_bound": (
        lambda: e1_upper_bound(_BIG, 0.035, 0.2, 0.009, 1e-6),
        "e1_upper_bound q_nu"),
}


@pytest.mark.parametrize("call, named", list(_OVERFLOWED_BEFORE.values()),
                         ids=list(_OVERFLOWED_BEFORE))
def test_int_beyond_float_range_named(call, named):
    with pytest.raises(DomainError) as exc:
        call()
    assert str(exc.value) == f"{named} is too large to convert to a float"


def test_int_beyond_float_range_attenuation_of_a_fit():
    # The fit checks its attenuation with the finite check, and its message.
    with pytest.raises(DomainError, match="^attenuation must be finite"):
        fit_raman_coefficient([NoiseMeasurement(10.0, 0.5, 9000.0)], _BIG)


@pytest.mark.parametrize("call, expected", [
    (lambda: mw_to_dbm(_BIG), 3311.329952303793),   # log10 reads it exactly
    (lambda: transmittance(math.inf), 0.0),
])
def test_unchanged_on_extremes(call, expected):
    assert call() == expected
