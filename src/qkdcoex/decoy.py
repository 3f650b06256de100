"""Asymptotic secure key rates for vacuum+weak decoy-state BB84.

The analysis is the standard three-intensity (signal mu, decoy nu, vacuum)
GLLP-style bound: the decoy gains pin a lower bound on the single-photon
yield Y1 and an upper bound on the single-photon error e1, and the secure
fraction per pulse is

    R = q * ( -Qmu * f * H2(Emu) + Q1 * (1 - H2(e1U)) ),  Q1 = Y1L * mu * e^-mu,

converted to bits/s with the pulse clock and the signal-emission
probability. Everything is asymptotic (infinite key); finite-size
statistics are out of scope. All probabilities and bounds are clamped to
their physical ranges and clamp events are counted in the returned
diagnostics, because the decoy bounds go negative in degenerate regimes.
"""

from __future__ import annotations

import math
import operator
import sys
from collections.abc import Callable
from functools import partial
from itertools import accumulate, repeat, takewhile

from .errors import (ConfigError, DomainError, NoSecureDistanceError,
                     UndefinedBoundError, _finite, _record, _require_finite,
                     _require_real)

_PROB_SUM_TOL = 1e-12
# Error rate e0 of a background (dark or noise) count: a random bit. It is a
# constant of the decoy bound, not a parameter; ProtocolParams.background_error
# must equal it.
_E0 = 0.5
# Largest signal intensity mu: e^mu <= float max / e, so that Q * e^mu stays
# finite for every gain Q = Y0 + 1 - e^(-eta*mu) < 2.
_MU_MAX = math.log(sys.float_info.max) - 1.0
# A positive Y1 bound from a decoy gain Qnu below this is rounding noise of
# subnormal gains (Qnu <= Qmu, so it covers both), not a yield: it is
# taken as a vanished bound, 0.0, as a raw bound of exactly 0.0 is.
_GAIN_MIN = sys.float_info.min
# Largest distance grid a sweep or a cliff search builds; a larger one is
# rejected before anything is evaluated.
_MAX_GRID_POINTS = 1_000_000


@_record
class DecoyIntensities:
    """Signal/decoy/vacuum mean photon numbers and emission probabilities."""

    mu: float = 0.4
    nu: float = 0.2
    omega: float = 0.0
    p_mu: float = 6.0 / 8.0
    p_nu: float = 1.0 / 8.0
    p_omega: float = 1.0 / 8.0

    def __post_init__(self):
        _require_finite("intensities", **vars(self))
        if not (self.mu > self.nu > self.omega):
            raise ConfigError(
                f"intensities must satisfy mu > nu > omega, got "
                f"{self.mu}/{self.nu}/{self.omega}"
            )
        if self.omega != 0.0:
            raise ConfigError(f"vacuum intensity must be 0, got {self.omega}")
        probs = (self.p_mu, self.p_nu, self.p_omega)
        if any(p <= 0.0 for p in probs):
            raise ConfigError(f"emission probabilities must be > 0, got {probs}")
        if abs(sum(probs) - 1.0) > _PROB_SUM_TOL:
            raise ConfigError(
                f"emission probabilities must sum to 1, got {sum(probs)!r}"
            )
        # The yield bound divides by mu*nu - nu^2 and scales the gains by
        # e^mu and e^nu; an overflow there makes it NaN or raises.
        denom = self.mu * self.nu - self.nu * self.nu
        if (denom == 0.0 or not math.isfinite(self.mu / denom)
                or self.mu > _MU_MAX):
            raise ConfigError(
                f"intensities mu = {self.mu}, nu = {self.nu} are outside the "
                f"domain of the decoy bound"
            )


@_record
class DetectorSpec:
    """Gated single-photon detector bank at the receiver."""

    efficiency: float = 0.10
    gate_hz: float = 1.25e9
    dark_count_per_gate: float = 3.0e-7
    num_detectors: int = 4

    def __post_init__(self):
        _require_finite("detector", **vars(self))
        if not 0.0 < self.efficiency <= 1.0:
            raise ConfigError(f"efficiency must be in (0, 1], got {self.efficiency}")
        if not 0.0 <= self.dark_count_per_gate < 1.0:
            raise ConfigError(
                f"dark count per gate must be in [0, 1), got "
                f"{self.dark_count_per_gate}"
            )
        if self.gate_hz <= 0.0:
            raise ConfigError(f"gate frequency must be > 0, got {self.gate_hz}")
        # The dark-count term multiplies by it, so a float would scale Y0
        # and True (a bool is an int) would count as one detector.
        if type(self.num_detectors) is not int:
            raise ConfigError(f"detector num_detectors must be an int, got "
                              f"{self.num_detectors!r}")
        if self.num_detectors < 1:
            raise ConfigError(f"need >= 1 detector, got {self.num_detectors}")


@_record
class ProtocolParams:
    """Protocol-level constants of the BB84 system.

    q (basis sifting) and the signal emission probability are kept as
    separate factors; only their product enters the output rate.
    block_size_bits is post-processing metadata and never used in the
    asymptotic computation.
    """

    clock_hz: float = 625e6
    misalignment_error: float = 0.033
    background_error: float = _E0
    ec_efficiency: float = 1.16
    sifting_factor: float = 0.5
    block_size_bits: int = 500_000

    def __post_init__(self):
        _require_finite("protocol", **vars(self))
        if self.clock_hz <= 0.0:
            raise ConfigError(f"clock must be > 0 Hz, got {self.clock_hz}")
        if not 0.0 <= self.misalignment_error < 0.5:
            raise ConfigError(
                f"misalignment error must be in [0, 0.5), got "
                f"{self.misalignment_error}"
            )
        if self.background_error != _E0:
            raise ConfigError(
                f"background error must be exactly 0.5, got {self.background_error}"
            )
        if self.ec_efficiency < 1.0:
            raise ConfigError(
                f"error-correction efficiency must be >= 1, got {self.ec_efficiency}"
            )
        if not 0.0 < self.sifting_factor <= 1.0:
            raise ConfigError(
                f"sifting factor must be in (0, 1], got {self.sifting_factor}"
            )
        # As num_detectors: a float, a bool or a count below 1 is no block.
        if type(self.block_size_bits) is not int or self.block_size_bits < 1:
            raise ConfigError(f"protocol block_size_bits must be an int >= 1, "
                              f"got {self.block_size_bits!r}")


@_record
class ChannelPoint:
    """Overall single-photon transmittance-and-detection probability eta and
    background yield Y0 per pulse."""

    eta: float
    y0: float

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ConfigError(f"eta must be in [0, 1], got {self.eta}")
        if not 0.0 <= self.y0 < 1.0:
            raise ConfigError(f"Y0 must be in [0, 1), got {self.y0}")


@_record
class KeyRateBreakdown:
    """Per-point diagnostics of the key-rate evaluation."""

    q_mu: float
    e_mu: float
    q_nu: float
    e_nu: float
    y1_lower: float
    e1_upper: float
    rate_per_pulse: float
    rate_bps: float
    clamp_events: int


@_record
class DistanceResult:
    """Outcome of a maximum-distance search."""

    distance_km: float
    at_upper_boundary: bool = False


# ---------------------------------------------------------------------------
# per-point kernels: evaluated once per sweep point, calibration grid cell
# and bisection step, on arguments the public functions below validate.

def _decoy_steps(mu: float, nu: float):
    """The part of the key rate that does not depend on the EC efficiency f,
    in three steps, with the intensity constants of the vacuum+weak bound
    (e^mu, e^nu, e^-mu, nu^2, mu^2 and the two quotients of mu and nu alone)
    computed once:

    - `prefix(eta, y0)`: (signal_mu, Qmu, signal_nu, Qnu, E0*Y0, Y1L, clamp
      events), with Y1L clamped to [0, 1] and 0.0 from a subnormal Qnu;
    - `emu_at(p, ed)`: Emu, from a prefix `p`;
    - `rest(p, ed, emu)`: (Qmu, Emu, Qnu, Enu, Y1L, e1U, clamp events,
      terms), where `terms` = (-Qmu, H2(Emu), Q1 * (1 - H2(e1U))) feeds
      `_rate_per_pulse`, or is None when the yield bound vanishes: the rate
      is then zero, with e1U pinned at 0.5 and one more clamp event.

    A point runs all three (`_kernel`); a calibration runs `prefix` once per
    target and the other two per grid row. Each statement is the one of
    `gain_and_qber`, `y1_lower_bound`, `e1_upper_bound` or `binary_entropy`
    with the operations in their order (E0*Y0 comes first in both
    numerators), so every value carries their bits (`TestBoundKernel`). A
    call per public step costs too much: on the `search` benchmark it raised
    `calibrate_ms` by 18.2% and `max_distance_ms` by 11.2%.
    """
    e_mu, e_nu, e_neg_mu = math.exp(mu), math.exp(nu), math.exp(-mu)
    nu2, mu2 = nu * nu, mu * mu
    scale = mu / (mu * nu - nu2)
    vacuum = (mu2 - nu2) / mu2
    log2 = math.log2
    expm1 = math.expm1

    def prefix(eta, y0):
        signal_mu = -expm1(-eta * mu)
        qmu = y0 + signal_mu
        signal_nu = -expm1(-eta * nu)
        qnu = y0 + signal_nu
        # A raw bound of exactly +-0.0 is returned unclamped, and one from
        # subnormal gains as 0.0, as `y1_lower_bound` does; `rest` then
        # counts one clamp event.
        y1 = scale * (qnu * e_nu - qmu * e_mu * nu2 / mu2 - vacuum * y0)
        clamps = 0
        if y1 < 0.0:
            y1, clamps = 0.0, 1
        elif qnu < _GAIN_MIN and y1 > 0.0:
            y1 = 0.0
        elif y1 > 1.0:
            y1, clamps = 1.0, 1
        return signal_mu, qmu, signal_nu, qnu, _E0 * y0, y1, clamps

    def emu_at(p, ed):
        signal_mu, qmu, _, _, e0_y0, _, _ = p
        return (e0_y0 + ed * signal_mu) / qmu if qmu > 0.0 else _E0

    def rest(p, ed, emu):
        _, qmu, signal_nu, qnu, e0_y0, y1, clamps = p
        enu = (e0_y0 + ed * signal_nu) / qnu if qnu > 0.0 else _E0
        if y1 <= 0.0:
            return qmu, emu, qnu, enu, y1, 0.5, clamps + 1, None
        e1 = (enu * qnu * e_nu - e0_y0) / (y1 * nu)
        if e1 < 0.0:
            e1, clamps = 0.0, clamps + 1
        elif e1 > 0.5:
            e1, clamps = 0.5, clamps + 1
        h_emu = (0.0 if emu <= 0.0 or emu >= 1.0 else
                 -emu * log2(emu) - (1.0 - emu) * log2(1.0 - emu))
        h_e1 = (0.0 if e1 <= 0.0 or e1 >= 1.0 else
                -e1 * log2(e1) - (1.0 - e1) * log2(1.0 - e1))
        return (qmu, emu, qnu, enu, y1, e1, clamps,
                (-qmu, h_emu, y1 * mu * e_neg_mu * (1.0 - h_e1)))
    return prefix, emu_at, rest


def _rate_per_pulse(terms: tuple, f_ec: float, q_sift: float) -> float:
    """The rate R per pulse of the module docstring from the `_decoy_steps`
    terms, clamped at 0: the only part of the rate that depends on f."""
    neg_qmu, h_emu, single = terms
    r = q_sift * (neg_qmu * f_ec * h_emu + single)
    if r < 0.0:
        return 0.0
    return r


def _kernel(intensities: DecoyIntensities, params: ProtocolParams):
    """The per-point key rate with its constants bound once: `key(eta, y0,
    ed, f)` gives the `KeyRateBreakdown` fields in order, from the three
    steps of `_decoy_steps`, with rate_bps = rate_per_pulse * clock_hz *
    p_mu. ed and f default to those of `params`."""
    prefix, emu_at, rest = _decoy_steps(intensities.mu, intensities.nu)
    p_mu = intensities.p_mu
    q_sift, clock_hz = params.sifting_factor, params.clock_hz

    def key(eta, y0, ed=params.misalignment_error, f=params.ec_efficiency):
        p = prefix(eta, y0)
        qmu, emu, qnu, enu, y1, e1, clamps, terms = rest(p, ed, emu_at(p, ed))
        r = 0.0 if terms is None else _rate_per_pulse(terms, f, q_sift)
        return qmu, emu, qnu, enu, y1, e1, r, r * clock_hz * p_mu, clamps
    return key


# The margin of `_rate_bound`: its bracket must lie below -_RATE_MARGIN
# times the single-photon term plus (f + mu * scale) times the gains and Y0
# at eta_hi, and below -_RATE_FLOOR, so that no subnormal value certifies.
# The second part scales the rounding error of the Y1 bound, which
# cancellation can make far larger than an ulp of Y1, and of the EC term,
# whose H2 has an absolute error of about an ulp (from log2(1 - x)).
_RATE_MARGIN = 1e-12
_RATE_FLOOR = 1e-300


def _rate_bound(intensities: DecoyIntensities, params: ProtocolParams):
    """`zero(eta_lo, eta_hi, y0)`: true only if the key rate is 0 at every
    eta in [eta_lo, eta_hi] and every Y0 >= y0; None for mu > 1, where the
    bound is not proven. `TestRateBound` checks it as a property."""
    # The rate is positive only where the bracket R / q of the module
    # docstring is, and `zero` bounds that bracket from above over the box:
    # - EC = Qmu f H2(Emu) never falls as eta rises (Emu falls towards e_d,
    #   and by concavity d(EC)/dQmu >= f H2(e_d) >= 0): take it at eta_lo.
    # - With h(x) = (e^x - 1) / x^2, the raw Y1 bound is
    #   scale (c0 Y0 + g(eta)), c0 = nu^2 (h(nu) - h(mu)) > 0 as h falls
    #   on (0, 1], and g' = nu (e^(nu t) - nu/mu e^(mu t)) > 0, t = 1 - eta,
    #   as ln z - z rises below 1. So for mu <= 1 it rises with eta: take
    #   it at eta_hi, clamped as the kernel clamps it.
    # - The numerator of e1U, Y0 (e^nu - 1) / 2 + e_d (1 - e^(-eta nu))
    #   e^nu, never falls with eta: take it at eta_lo.
    # - The single-photon term rises with Y1 and falls with that numerator.
    # In Y0 the bound falls: d(EC)/dY0 >= f >= 1 (H2 is concave with
    # H2(1/2) = 1), while the single-photon term rises at most mu e^-mu
    # scale c0 = mu e^-mu mu nu (h(nu) - h(mu)) / (mu - nu) < 1/e, as the
    # terms of h past 1/x + 1/2 all rise. So the bound at y0 bounds every
    # Y0 >= y0. A computed Y1 bound that vanishes (it is > 0 but for
    # rounding when eta or Y0 is > 0) certifies nothing.
    mu, nu = intensities.mu, intensities.nu
    if mu > 1.0:
        return None
    scale = mu / (mu * nu - nu * nu)
    prefix, emu_at, rest = _decoy_steps(mu, nu)
    ed, f = params.misalignment_error, params.ec_efficiency

    def zero(eta_lo, eta_hi, y0):
        lo, hi = prefix(eta_lo, y0), prefix(eta_hi, y0)
        p = lo[:5] + hi[5:]
        terms = rest(p, ed, emu_at(p, ed))[7]
        if terms is None:
            return False
        neg_qmu, h_emu, single = terms
        return neg_qmu * f * h_emu + single < -_RATE_FLOOR - _RATE_MARGIN * (
            single + (f + mu * scale) * (hi[1] + hi[3] + y0))
    return zero


def binary_entropy(x: float) -> float:
    """H2(x) = -x log2 x - (1-x) log2 (1-x), with H2(0) = H2(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"binary entropy argument must be in [0, 1], got {x}")
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def gain_and_qber(intensity: float, ch: ChannelPoint,
                  params: ProtocolParams) -> tuple[float, float]:
    """Gain Q and QBER E for one Poissonian intensity on this channel.

    Q = Y0 + 1 - exp(-eta*intensity); E*Q = e0*Y0 + ed*(1 - exp(-eta*intensity)).
    A dead channel (Q == 0) reports the background error e0.
    """
    _require_real("gain_and_qber", **locals())
    if not 0.0 <= intensity < math.inf:
        raise DomainError(f"intensity must be finite and >= 0, got {intensity}")
    signal = -math.expm1(-ch.eta * intensity)
    q = ch.y0 + signal
    return q, ((_E0 * ch.y0 + params.misalignment_error * signal) / q
               if q > 0.0 else _E0)


def y1_lower_bound(q_mu: float, q_nu: float, intensities: DecoyIntensities,
                   y0: float) -> float:
    """Lower bound on the single-photon yield from the signal and decoy
    gains, clamped to [0, 1]; 0.0 when q_nu is subnormal (`_GAIN_MIN`)."""
    _require_real("y1_lower_bound", **locals())
    mu, nu = intensities.mu, intensities.nu
    raw = (mu / (mu * nu - nu * nu)) * (
        q_nu * math.exp(nu)
        - q_mu * math.exp(mu) * (nu * nu) / (mu * mu)
        - (mu * mu - nu * nu) / (mu * mu) * y0
    )
    if math.isnan(raw):
        raise DomainError(f"yield bound is undefined at gains {q_mu}, {q_nu} "
                          f"and Y0 {y0}")
    if raw < 0.0 or (q_nu < _GAIN_MIN and raw > 0.0):
        return 0.0
    if raw > 1.0:
        return 1.0
    return raw


def e1_upper_bound(q_nu: float, e_nu: float, nu: float, y1_lower: float,
                   y0: float, e0: float = _E0) -> float:
    """Upper bound on the single-photon error rate, clamped to [0, 0.5]."""
    _require_real("e1_upper_bound", **locals())
    if y1_lower <= 0.0:
        raise UndefinedBoundError(
            "single-photon yield bound is zero; key rate is zero"
        )
    if not nu > 0.0:
        raise DomainError(f"decoy intensity must be > 0, got {nu}")
    try:
        raw = (e_nu * q_nu * math.exp(nu) - e0 * y0) / (y1_lower * nu)
    except (OverflowError, ZeroDivisionError):   # e^nu, or y1 * nu is 0
        raw = math.nan
    if math.isnan(raw):
        raise DomainError(f"error bound is undefined at nu = {nu}, Y1 = "
                          f"{y1_lower}")
    if raw < 0.0:
        return 0.0
    if raw > 0.5:
        return 0.5
    return raw


def key_rate_details(ch: ChannelPoint, intensities: DecoyIntensities,
                     params: ProtocolParams) -> KeyRateBreakdown:
    """Full evaluation of the secure key rate with diagnostics."""
    return KeyRateBreakdown(*_kernel(intensities, params)(ch.eta, ch.y0))


def secure_key_rate_bps(ch: ChannelPoint, intensities: DecoyIntensities,
                        params: ProtocolParams) -> float:
    """Asymptotic secure key rate in bits/s (never negative)."""
    return key_rate_details(ch, intensities, params).rate_bps


def _check_search(from_km: float, to_km: float, coarse_step_km: float,
                  resolution_km: float) -> None:
    """Raise DomainError unless `find_rate_cliff` can search this range:
    finite floats (an int too large for a float is not one), a non-empty
    range, steps > 0 and a coarse grid of at most _MAX_GRID_POINTS."""
    if not _finite((from_km, to_km, coarse_step_km, resolution_km)):
        raise DomainError(f"search range and steps must be finite, got "
                          f"[{from_km}, {to_km}], {coarse_step_km}, {resolution_km}")
    if to_km < from_km:
        raise DomainError(f"empty search range [{from_km}, {to_km}]")
    if coarse_step_km <= 0.0 or resolution_km <= 0.0:
        raise DomainError("steps must be > 0")
    if (to_km - from_km) / coarse_step_km >= _MAX_GRID_POINTS:
        raise DomainError(f"coarse grid over [{from_km}, {to_km}] km at "
                          f"{coarse_step_km} km exceeds {_MAX_GRID_POINTS} points")


def find_rate_cliff(rate_fn: Callable[[float], float], from_km: float,
                    to_km: float, coarse_step_km: float = 1.0,
                    resolution_km: float = 0.01,
                    zero_on: Callable[[float, float], bool | None] | None = None
                    ) -> DistanceResult:
    """Largest distance with rate_fn > 0: coarse grid scan, then bisection.

    `rate_fn` must be pure. The coarse grid is scanned from the top down
    and the scan stops at the first point with a positive rate, which is the
    last positive grid point; the bisection then refines the interval above
    it. A grid point below that one is never evaluated, so an exception
    rate_fn would raise there does not surface.

    `zero_on(a, b)`, when given, is a certificate: it must be pure and
    return true only if every grid point in [a, b] may count as rate 0.
    The scan is then a descent over blocks of grid points, each passed to
    zero_on: a certified block is skipped whole, one for which zero_on
    returns None (it can certify no block inside, as for a single point)
    is scanned point by point, and any other is split, its upper half
    first. rate_fn sees single points only, in descending order, so a
    sound certificate gives the outcome of the plain scan
    (`scenario.max_secure_distance` states the obligations and the margin
    of its own). An exception raised at a point that is evaluated
    propagates, from zero_on, the scan or the bisection alike.

    Returns the range upper bound with `at_upper_boundary` set when the rate
    is still positive there. Raises NoSecureDistanceError when the rate is
    non-positive over the whole range (every grid point outside a certified
    block is then evaluated). On a normal return d, the bracket
    rate_fn(d) > 0 and rate_fn(d + resolution) <= 0 holds. A coarse grid
    that would exceed _MAX_GRID_POINTS, or whose step does not advance at
    float resolution, raises DomainError before rate_fn is called; so does a
    bisection step that cannot split its interval (a resolution below the
    float resolution there), after the grid points are evaluated.
    """
    _check_search(from_km, to_km, coarse_step_km, resolution_km)

    # The grid is from_km, each running sum of the step below to_km, and
    # min(the next sum, to_km). A sum that the step does not advance stalls
    # forever; any other advance rounds to at least half the step, so
    # 2 * span + 4 sums always reach to_km or stall.
    span = int((to_km - from_km) / coarse_step_km)
    grid = list(takewhile(partial(operator.gt, to_km),
                          accumulate(repeat(coarse_step_km, 2 * span + 4),
                                     initial=from_km)))
    if grid:
        d = grid[-1] + coarse_step_km
        if d == grid[-1]:
            raise DomainError(f"coarse step {coarse_step_km} km is below the "
                              f"float resolution at {d} km")
        grid.append(min(d, to_km))
    else:
        grid = [from_km]

    # Blocks of grid indices: the upper half of a split is pushed last, so
    # it is popped first. The stack holds at most one block per level.
    blocks, last = [(0, len(grid) - 1)], None
    while blocks and last is None:
        lo, hi = blocks.pop()
        certified = None if zero_on is None else zero_on(grid[lo], grid[hi])
        if certified is None:
            last = next((i for i in range(hi, lo - 1, -1)
                         if rate_fn(grid[i]) > 0.0), None)
        elif not certified:
            mid = (lo + hi + 1) // 2
            blocks += (lo, mid - 1), (mid, hi)
    if last is None:
        raise NoSecureDistanceError(
            f"key rate is non-positive over [{from_km}, {to_km}] km"
        )
    if last == len(grid) - 1:
        return DistanceResult(grid[last], True)

    lo, hi = grid[last], grid[last + 1]
    while hi - lo > resolution_km:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            raise DomainError(f"resolution {resolution_km} km is below the "
                              f"float resolution at {lo} km")
        if rate_fn(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return DistanceResult(lo, False)


def max_secure_distance_km(evaluator: Callable[[float], ChannelPoint],
                           intensities: DecoyIntensities,
                           params: ProtocolParams,
                           search_range_km: tuple[float, float],
                           coarse_step_km: float = 1.0,
                           resolution_km: float = 0.01) -> DistanceResult:
    """Largest distance at which the secure key rate stays positive.

    `evaluator` maps a distance to the channel point at that distance and
    must be pure; the search is a 1 km coarse scan refined by bisection to
    0.01 km.
    """
    key = _kernel(intensities, params)

    def rate(d: float) -> float:
        ch = evaluator(d)
        return key(ch.eta, ch.y0)[7]

    return find_rate_cliff(rate, search_range_km[0], search_range_km[1],
                           coarse_step_km, resolution_km)


def _dark_yield(detector: DetectorSpec, clock_hz: float) -> float:
    """Dark-count part of Y0: num_detectors * dark_per_gate * gates-per-pulse."""
    return (detector.num_detectors * detector.dark_count_per_gate
            * (detector.gate_hz / clock_hz))


def _y0_step(dark: float, divisor_hz: float,
             ceiling: float = 1.0) -> Callable[[float], float]:
    """The Y0 step with its constants bound once: `y0(noise_rate_cps)` is
    min(ceiling, dark + min(1, noise_rate_cps / divisor_hz)), the noise
    rate taken per pulse and clamped, then added to the dark-count term.
    The public functions keep the ceiling 1; the scenario engine passes
    the largest float below 1, as a `ChannelPoint` needs Y0 < 1."""
    def y0(noise_rate_cps: float) -> float:
        return min(ceiling, dark + min(1.0, noise_rate_cps / divisor_hz))
    return y0


def background_yield(detector: DetectorSpec, params: ProtocolParams,
                     noise_rate_cps: float,
                     per_pulse_divisor_hz: float | None = None) -> float:
    """Background yield Y0 per pulse: dark counts plus channel noise.

    Dark counts contribute num_detectors * dark_per_gate * gates-per-pulse.
    The noise rate is converted per pulse with the pulse clock unless an
    explicit divisor (e.g. the detector gate rate) is supplied. The noise
    rate must already be a detected rate; no efficiency scaling is applied
    here.
    """
    _require_real("background_yield", **locals())
    if not noise_rate_cps >= 0.0:
        raise DomainError(f"noise rate must be >= 0, got {noise_rate_cps}")
    divisor = params.clock_hz if per_pulse_divisor_hz is None else per_pulse_divisor_hz
    if not divisor > 0.0:
        raise DomainError(f"divisor must be > 0 Hz, got {divisor}")
    return _y0_step(_dark_yield(detector, params.clock_hz), divisor)(noise_rate_cps)


def dbm_to_mw(dbm: float) -> float:
    """Power conversion: dBm to milliwatts. A power above about 3082.5 dBm,
    whose milliwatts overflow a float, raises DomainError, as do NaN and
    +inf."""
    try:
        mw = 10.0 ** (dbm / 10.0)
    except OverflowError:
        raise DomainError(
            f"power {dbm} dBm is too large to convert to mW") from None
    if mw < math.inf:
        return mw
    raise DomainError(f"power must be finite, got {dbm} dBm")


def mw_to_dbm(mw: float) -> float:
    """Power conversion: milliwatts to dBm."""
    if not 0.0 < mw < math.inf:
        raise DomainError(f"power must be finite and > 0 mW, got {mw}")
    return 10.0 * math.log10(mw)
