"""Fiber, mode and component model: per-channel loss, transmittance,
modal isolation and the classical power budget.

All losses are stored and summed in dB; conversion to a linear
transmittance happens only at the `transmittance` boundary. Types are
frozen records with read-only maps, and every operation is a pure
function, so everything here is hashable and safe to share across threads.
"""

from __future__ import annotations

import bisect
import enum
import math
from collections.abc import Mapping, Sequence

from .errors import (ConfigError, DomainError, _record, _require_finite,
                     _require_real)


class Mode(enum.Enum):
    """Spatial mode carrying a channel."""

    FUNDAMENTAL = "fundamental"   # the single guided mode of SMF
    LP01 = "lp01"
    LP02 = "lp02"


class Band(enum.Enum):
    """Coarse wavelength band label; also selects the channel in loss queries.

    quantum ~ 1550.12 nm, classical ~ 1546.92 nm.
    """

    QUANTUM = "quantum"
    CLASSICAL = "classical"


class FiberKind(enum.Enum):
    SMF = "smf"
    FMF = "fmf"


class Side(enum.Enum):
    TRANSMITTER = "transmitter-side"
    RECEIVER = "receiver-side"


class SchemeName(enum.Enum):
    SMF = "smf"
    LP01_IN = "lp01in"   # classical light launched into LP01
    LP02_IN = "lp02in"   # classical light launched into LP02


_SCHEME_OF = {scheme.value: scheme for scheme in SchemeName}
_SMF_MODES = (Mode.FUNDAMENTAL,)
_FMF_MODES = (Mode.LP01, Mode.LP02)


class _FrozenMap(dict):
    """A dict that refuses every write, so a validated spec stays valid.
    `repr` and `==` are the dict's; it hashes, pickles and copies."""

    def _read_only(self, *args, **kwargs):
        raise TypeError("a spec's map is read-only; build a new spec instead")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __hash__(self):
        return hash(frozenset(self.items()))

    def __reduce__(self):
        return type(self), (dict(self),)


@_record
class FiberSpec:
    """Per-mode, per-band attenuation of a fiber.

    Attenuation values must be positive and below 1 dB/km. An SMF spec
    carries the fundamental mode at both bands; an FMF spec carries LP01
    and LP02 at both bands. The map is stored as a read-only copy.
    """

    kind: FiberKind
    attenuation_db_per_km: Mapping[tuple[Mode, Band], float]

    def __post_init__(self):
        object.__setattr__(self, "attenuation_db_per_km",
                           _FrozenMap(self.attenuation_db_per_km))
        modes = _SMF_MODES if self.kind is FiberKind.SMF else _FMF_MODES
        for mode in modes:
            for band in Band:
                key = (mode, band)
                if key not in self.attenuation_db_per_km:
                    raise ConfigError(
                        f"fiber attenuation missing entry for "
                        f"({mode.value}, {band.value})"
                    )
        for (mode, band), value in self.attenuation_db_per_km.items():
            if not 0.0 < value < 1.0:
                raise ConfigError(
                    f"fiber attenuation for ({mode.value}, {band.value}) must "
                    f"be in (0, 1) dB/km, got {value}"
                )

    @classmethod
    def smf(cls, quantum_db_per_km: float = 0.190,
            classical_db_per_km: float = 0.192) -> "FiberSpec":
        return cls(FiberKind.SMF, {
            (Mode.FUNDAMENTAL, Band.QUANTUM): quantum_db_per_km,
            (Mode.FUNDAMENTAL, Band.CLASSICAL): classical_db_per_km,
        })

    @classmethod
    def fmf(cls, lp01_db_per_km: float = 0.226,
            lp02_db_per_km: float = 0.257) -> "FiberSpec":
        # One measured attenuation per LP mode; reused for both bands
        # (no band-resolved characterization is available).
        return cls(FiberKind.FMF, {
            (Mode.LP01, Band.QUANTUM): lp01_db_per_km,
            (Mode.LP01, Band.CLASSICAL): lp01_db_per_km,
            (Mode.LP02, Band.QUANTUM): lp02_db_per_km,
            (Mode.LP02, Band.CLASSICAL): lp02_db_per_km,
        })

    def attenuation(self, mode: Mode, band: Band) -> float:
        try:
            return self.attenuation_db_per_km[(mode, band)]
        except KeyError:
            raise ConfigError(
                f"no attenuation entry for ({mode.value}, {band.value})"
            ) from None


@_record
class ComponentSpec:
    """Inline component with a per-mode insertion loss (a read-only map)."""

    name: str
    insertion_loss_db: Mapping[Mode, float]
    position: Side

    def __post_init__(self):
        object.__setattr__(self, "insertion_loss_db",
                           _FrozenMap(self.insertion_loss_db))
        _require_finite(f"component {self.name!r}:", **vars(self))
        for mode, value in self.insertion_loss_db.items():
            if value < 0.0:
                raise ConfigError(
                    f"component {self.name!r}: insertion loss for mode "
                    f"{mode.value} must be >= 0, got {value}"
                )

    def loss_for(self, mode: Mode) -> float:
        try:
            return self.insertion_loss_db[mode]
        except KeyError:
            raise ConfigError(
                f"component {self.name!r} has no insertion loss entry for "
                f"mode {mode.value}"
            ) from None


@_record
class MultiplexScheme:
    """Assignment of the quantum and classical channels to spatial modes."""

    name: SchemeName
    quantum_mode: Mode
    classical_mode: Mode

    _EXPECTED = {
        SchemeName.SMF: (Mode.FUNDAMENTAL, Mode.FUNDAMENTAL),
        SchemeName.LP01_IN: (Mode.LP02, Mode.LP01),
        SchemeName.LP02_IN: (Mode.LP01, Mode.LP02),
    }

    def __post_init__(self):
        if not isinstance(self.name, SchemeName):
            raise ConfigError(f"scheme must be one of "
                              f"{', '.join(_SCHEME_OF)}, got {self.name!r}")
        expected = self._EXPECTED[self.name]
        if (self.quantum_mode, self.classical_mode) != expected:
            raise ConfigError(
                f"scheme {self.name.value}: quantum/classical modes must be "
                f"{expected[0].value}/{expected[1].value}"
            )

    @classmethod
    def named(cls, name: SchemeName | str) -> "MultiplexScheme":
        if isinstance(name, str):
            name = _SCHEME_OF.get(name.replace("-", "").lower(), name)
        # A name that is no SchemeName gets no modes: __post_init__ refuses it.
        q, c = cls._EXPECTED.get(name, (None, None))
        return cls(name, q, c)

    def mode_for(self, channel: Band) -> Mode:
        return self.quantum_mode if channel is Band.QUANTUM else self.classical_mode


@_record
class IsolationTable:
    """Measured modal isolation (dB) of fiber plus mode MUX/DEMUX versus
    distance, one row list per launch direction.

    Characterization data only: it does not enter the noise model (mode
    leakage is already folded into the measured Raman coefficients).
    """

    lp01_in: Sequence[tuple[float, float]]
    lp02_in: Sequence[tuple[float, float]]

    def __post_init__(self):
        _require_finite("isolation table", **vars(self))
        for label, rows in (("lp01in", self.lp01_in), ("lp02in", self.lp02_in)):
            if not rows:
                raise ConfigError(f"isolation table {label}: no rows")
            prev_d, prev_iso = None, None
            for d, iso in rows:
                if iso <= 0.0:
                    raise ConfigError(
                        f"isolation table {label}: isolation at {d} km must "
                        f"be > 0 dB, got {iso}"
                    )
                if prev_d is not None and d <= prev_d:
                    raise ConfigError(
                        f"isolation table {label}: distances must be strictly "
                        f"increasing ({prev_d} then {d})"
                    )
                if prev_iso is not None and iso > prev_iso:
                    raise ConfigError(
                        f"isolation table {label}: isolation must be "
                        f"non-increasing with distance ({prev_iso} then {iso})"
                    )
                prev_d, prev_iso = d, iso

    def rows_for(self, direction: SchemeName) -> Sequence[tuple[float, float]]:
        if direction is SchemeName.LP01_IN:
            return self.lp01_in
        if direction is SchemeName.LP02_IN:
            return self.lp02_in
        raise DomainError("isolation is tabulated for lp01in/lp02in only")


@_record
class LinkPlan:
    """A span of fiber with the inline components on each channel's path."""

    fiber: FiberSpec
    length_km: float
    scheme: MultiplexScheme
    quantum_path_components: tuple[ComponentSpec, ...] = ()
    classical_path_components: tuple[ComponentSpec, ...] = ()

    def __post_init__(self):
        _require_finite("link", **vars(self))
        if self.length_km < 0.0:
            raise ConfigError(f"link length must be >= 0 km, got {self.length_km}")
        if self.fiber.kind is FiberKind.SMF and self.scheme.name is not SchemeName.SMF:
            raise ConfigError(
                f"scheme {self.scheme.name.value} requires an FMF link"
            )
        if self.fiber.kind is FiberKind.FMF and self.scheme.name is SchemeName.SMF:
            raise ConfigError("scheme smf requires an SMF link")
        # Fail fast if a component lacks the mode its path uses.
        for channel in Band:
            _path(self, channel)


def _path(plan: LinkPlan, channel: Band) -> tuple[float, tuple[float, ...]]:
    """Attenuation and ordered insertion losses of one channel's path."""
    mode = plan.scheme.mode_for(channel)
    components = (plan.quantum_path_components if channel is Band.QUANTUM
                  else plan.classical_path_components)
    return (plan.fiber.attenuation(mode, channel),
            tuple(comp.loss_for(mode) for comp in components))


def _loss_db(alpha: float, insertion_losses: tuple, length_km: float) -> float:
    """The loss sum of one path: alpha*L first, then each insertion loss
    added in path order (never pre-summed)."""
    loss = alpha * length_km
    for il in insertion_losses:
        loss += il
    return loss


def _transmittance(loss_db: float) -> float:
    """10^(-loss/10), unchecked."""
    return 10.0 ** (-loss_db / 10.0)


def total_loss_db(plan: LinkPlan, channel: Band) -> float:
    """End-to-end loss of one channel: fiber attenuation times length plus
    the insertion losses along that channel's path (`_loss_db`)."""
    loss = _loss_db(*_path(plan, channel), plan.length_km)
    if loss == math.inf:
        raise DomainError(f"{channel.value} loss overflows a float")
    return loss


def transmittance(loss_db: float) -> float:
    """Linear power transmittance of a dB loss: 10^(-loss/10)."""
    _require_real("transmittance", **locals())
    if not loss_db >= 0.0:
        raise DomainError(f"loss must be >= 0 dB, got {loss_db}")
    return _transmittance(loss_db)


def modal_isolation_at(table: IsolationTable, direction: SchemeName,
                       distance_km: float) -> float:
    """Piecewise-linear interpolation of the isolation table in dB over
    distance; exact at tabulated points, no extrapolation."""
    rows = table.rows_for(direction)
    distances = [d for d, _ in rows]
    if not distances[0] <= distance_km <= distances[-1]:
        raise DomainError(
            f"distance {distance_km} km outside tabulated range "
            f"[{distances[0]}, {distances[-1]}] km"
        )
    i = bisect.bisect_left(distances, distance_km)
    if distances[i] == distance_km:
        return rows[i][1]
    d0, v0 = rows[i - 1]
    d1, v1 = rows[i]
    t = (distance_km - d0) / (d1 - d0)
    return v0 + t * (v1 - v0)


def classical_min_launch_power_dbm(plan: LinkPlan,
                                   receiver_sensitivity_dbm: float) -> float:
    """Minimum launch power that still closes the classical link: the
    channel loss plus the receiver sensitivity."""
    _require_real("classical_min_launch_power_dbm", **locals())
    floor = total_loss_db(plan, Band.CLASSICAL) + receiver_sensitivity_dbm
    if not math.isfinite(floor):
        raise DomainError(f"power floor at sensitivity "
                          f"{receiver_sensitivity_dbm} dBm is not finite")
    return floor
