"""Spontaneous Raman scattering noise seen by the quantum receiver.

The model is forward (co-propagating) scattering only: the detected rate is
proportional to the classical fiber-input power and to the scattering
length, attenuated at the rate of the quantum path over which the noise
photons travel,

    rate = P_mw * rho * L * 10^(-alpha*L / 10)   [counts/s].

`rho` is a lumped detected coefficient in cps/(mW km): it already contains
detector efficiency, filter bandwidth and modal isolation, so no further
efficiency scaling is applied downstream.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterable, Sequence

from .decoy import _y0_step
from .errors import (ConfigError, DegenerateFitError, DomainError,
                     _finite, _record, _require_finite, _require_real)
from .link import SchemeName


@_record
class RamanCoefficient:
    """Lumped detected-noise coefficient in counts/s per mW per km."""

    rho_cps_per_mw_km: float
    scheme: SchemeName | None = None

    def __post_init__(self):
        _require_finite("Raman coefficient", **vars(self))
        if self.rho_cps_per_mw_km <= 0.0:
            raise ConfigError(
                f"Raman coefficient must be > 0, got {self.rho_cps_per_mw_km}"
            )


@_record
class NoiseMeasurement:
    """One measured noise point: distance, launch power and detected rate."""

    distance_km: float
    fiber_input_power_mw: float
    measured_rate_cps: float

    def __post_init__(self):
        _require_finite("measurement", **vars(self))
        for name in ("distance_km", "fiber_input_power_mw", "measured_rate_cps"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")


def _srs_rate(power_mw: float, rho: float, length_km: float,
              alpha_db_per_km: float) -> float:
    """Forward-scattered Raman count rate: power * rho * L, attenuated over L.

    Where `power * rho * L` overflows (near 1e304 km for the presets), the
    attenuation has long underflowed to 0.0 and the product would be
    `inf * 0.0 = nan`. The rate is then recomputed with `L * att` grouped
    first, which gives the physical 0.0. Finite rates keep the first
    operation order, and so their bytes.
    """
    att = 10.0 ** (-alpha_db_per_km * length_km / 10.0)
    rate = power_mw * rho * length_km * att
    if not math.isfinite(rate):
        rate = power_mw * rho * (length_km * att)
        if not math.isfinite(rate):
            raise DomainError(f"Raman rate overflows at {power_mw} mW over "
                              f"{length_km} km")
    return rate


def srs_noise_rate_cps(power_mw: float, rho: RamanCoefficient,
                       distance_km: float, alpha_db_per_km: float) -> float:
    """Detected Raman noise count rate at the given distance.

    `alpha_db_per_km` is the attenuation of the path the noise photons are
    detected on (the quantum mode at the quantum band, by default).

    The rate is exactly linear in power, `f(2P) == 2 * f(P)`, wherever it
    exceeds `sys.float_info.min` and `power_mw * rho` is exact or normal (so
    always for an integer `rho`, as in every preset). A subnormal rate is
    physically zero and carries no exactness promise: rounding at a fixed
    absolute step need not double exactly.
    """
    _require_real("srs_noise_rate_cps", **locals())
    if not (power_mw >= 0.0 and distance_km >= 0.0 and alpha_db_per_km >= 0.0):
        raise DomainError("power, distance and attenuation must be >= 0")
    return _srs_rate(power_mw, rho.rho_cps_per_mw_km, distance_km,
                     alpha_db_per_km)


def noise_prob_per_pulse(rate_cps: float, clock_hz: float) -> float:
    """Probability of a noise count per pulse slot, clamped to [0, 1]."""
    _require_real("noise_prob_per_pulse", **locals())
    if not clock_hz > 0.0:
        raise DomainError(f"clock must be > 0 Hz, got {clock_hz}")
    if not rate_cps >= 0.0:
        raise DomainError(f"rate must be >= 0 cps, got {rate_cps}")
    # The Y0 step with no dark counts: -0.0 is the additive identity, so
    # this is min(1, rate_cps / clock_hz) to the bit, signed zero included.
    return _y0_step(-0.0, clock_hz)(rate_cps)


def peak_noise_distance_km(alpha_db_per_km: float) -> float:
    """Distance of the interior maximum of the noise curve, 10/(alpha ln 10)."""
    _require_real("peak_noise_distance_km", **locals())
    if not alpha_db_per_km > 0.0:
        raise DomainError("attenuation must be > 0")
    peak = 10.0 / (alpha_db_per_km * math.log(10.0))
    if peak == math.inf:
        raise DomainError(f"attenuation {alpha_db_per_km} dB/km is too small "
                          f"for a finite peak distance")
    return peak


def fit_raman_coefficient(measurements: Sequence[NoiseMeasurement],
                          alpha_db_per_km: float,
                          scheme: SchemeName | None = None) -> RamanCoefficient:
    """Closed-form least-squares estimate of the lumped coefficient.

    With model values m_i = P_i * L_i * 10^(-alpha*L_i/10), the minimizer of
    sum((r_i - rho*m_i)^2) is rho = sum(r_i*m_i) / sum(m_i^2).
    """
    if not (_finite((alpha_db_per_km,)) and alpha_db_per_km >= 0.0):
        raise DomainError(f"attenuation must be finite and >= 0 dB/km, got "
                          f"{alpha_db_per_km}")
    usable = [m for m in measurements
              if m.distance_km > 0.0 and m.fiber_input_power_mw > 0.0]
    if not usable:
        raise DomainError(
            "need at least one measurement with positive distance and power"
        )
    num = 0.0
    den = 0.0
    for m in usable:
        model = _srs_rate(m.fiber_input_power_mw, 1.0, m.distance_km,
                          alpha_db_per_km)
        num += m.measured_rate_cps * model
        den += model * model
    if den == 0.0:
        raise DegenerateFitError("all model values are zero; cannot fit")
    return RamanCoefficient(num / den, scheme)


def read_measurements_csv(path: str | os.PathLike) -> tuple[NoiseMeasurement, ...]:
    """Load measurements from delimited text with header
    distance_km,power_mw,rate_cps. `csv` is imported here, so only a
    process that reads measurements loads it."""
    import csv

    expected = ["distance_km", "power_mw", "rate_cps"]
    out: list[NoiseMeasurement] = []
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read measurements file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    rows = csv.reader(lines)
    # csv reads lazily, so a field over csv.field_size_limit() raises
    # csv.Error wherever the header or a row is read.
    try:
        header = next(rows, None)
        if header != expected:
            raise ConfigError(
                f"{path}: expected header {','.join(expected)}, got {header}")
        # A blank line is skipped, and the line numbers count rows only.
        for lineno, row in enumerate(filter(None, rows), start=2):
            if len(row) != len(expected):
                raise ConfigError(f"{path}:{lineno}: expected "
                                  f"{len(expected)} fields, got {len(row)}")
            try:
                values = list(map(float, row))
            except ValueError:
                raise ConfigError(
                    f"{path}:{lineno}: non-numeric field") from None
            out.append(NoiseMeasurement(*values))
    except csv.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return tuple(out)


def coefficient_suppression(rho_smf: float, rho_fmf: Iterable[float]) -> float:
    """Noise reduction implied by the coefficients alone, before attenuation
    differences: 1 - mean(fmf coefficients) / smf coefficient."""
    fmf = list(rho_fmf)
    _require_real("coefficient_suppression", rho_smf=rho_smf, rho_fmf=fmf)
    if rho_smf <= 0.0 or not fmf:
        raise DomainError("need a positive SMF coefficient and FMF coefficients")
    suppression = 1.0 - (sum(fmf) / len(fmf)) / rho_smf
    if not math.isfinite(suppression):
        raise DomainError(f"suppression of {fmf} against {rho_smf} is not finite")
    return suppression


def detected_count_suppression(smf: tuple[float, float],
                               fmf: Sequence[tuple[float, float]],
                               distances_km: Sequence[float]) -> float:
    """Distance-averaged reduction of detected noise counts at equal
    fiber-input power.

    `smf` and each `fmf` entry are (rho, alpha_db_per_km) pairs for the
    path the noise is detected on. At each distance the FMF schemes are
    averaged and compared against SMF; the per-distance reductions are then
    averaged over the grid. The launch power cancels.
    """
    _require_real("detected_count_suppression", **locals())
    rho_smf, alpha_smf = smf
    if not distances_km or not fmf:
        raise DomainError("need at least one distance and one FMF entry")
    if not all(x >= 0.0 for x in (alpha_smf, *(a for _, a in fmf),
                                  *distances_km)):
        raise DomainError("attenuations and distances must be >= 0")
    total = 0.0
    for d in distances_km:
        ref = _srs_rate(1.0, rho_smf, d, alpha_smf)
        if ref <= 0.0:
            raise DomainError(f"SMF reference rate is zero at {d} km")
        mean_fmf = sum(_srs_rate(1.0, rho, d, alpha)
                       for rho, alpha in fmf) / len(fmf)
        total += 1.0 - mean_fmf / ref
    suppression = total / len(distances_km)
    if not math.isfinite(suppression):
        raise DomainError("detected-count suppression is not finite")
    return suppression
