"""Scenario engine: wires the link, noise and key-rate models together,
runs distance sweeps, calibrates free parameters against reference
operating points, and emits result tables.

Scenarios are immutable; each call resolves its scenario once, and every
point is then a pure function of the distance, so rows may be computed in
any order. Sweeps are evaluated in ascending distance and are
deterministic: identical inputs produce byte-identical output files.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import operator
import os
from array import array
from bisect import bisect_left, insort
from collections.abc import Sequence
from itertools import islice

from .decoy import (_KEY_RATE, _MAX_GRID_POINTS, _PREFIX_Y1, _REST_TERMS,
                    ChannelPoint, DecoyIntensities, DetectorSpec,
                    DistanceResult, ProtocolParams, _dark_yield,
                    _check_search, _decoy_steps, _kernel, _rate_bound,
                    _rate_per_pulse, _y0_step, dbm_to_mw, find_rate_cliff)
from .errors import (CalibrationError, ComputationError, ConfigError,
                     DomainError, QkdCoexError, _finite, _record, _replace,
                     _freeze, _require_finite, _require_real)
from .link import Band, LinkPlan, _loss_db, _path, _transmittance
from .raman import RamanCoefficient, _srs_rate

_FEASIBILITY_TOL_DB = 1e-9
_Y0_MAX = math.nextafter(1.0, 0.0)


@_record
class Scenario:
    """Complete description of one coexistence configuration.

    With `adaptive_power` set, the classical launch power at each distance
    is the minimum power that closes the classical link, capped at the
    fixed `classical_launch_power_dbm` reference.
    """

    name: str
    link: LinkPlan
    raman: RamanCoefficient
    detector: DetectorSpec
    protocol: ProtocolParams
    intensities: DecoyIntensities
    classical_launch_power_dbm: float = -2.60
    adaptive_power: bool = False
    receiver_sensitivity_dbm: float = -33.0
    # Which path's attenuation governs the decay of detected noise photons:
    # the quantum path (default) or the classical pump path.
    raman_alpha_basis: Band = Band.QUANTUM
    # Divisor converting the noise rate to a per-pulse probability: the
    # pulse clock (default) or the detector gate rate.
    noise_divisor: str = "clock"

    def __post_init__(self):
        _require_finite("scenario", **vars(self))
        if not isinstance(self.adaptive_power, bool):
            raise ConfigError(f"adaptive power must be a bool, got "
                              f"{self.adaptive_power!r}")
        if not isinstance(self.raman_alpha_basis, Band):
            raise ConfigError(f"Raman alpha basis must be a Band, got "
                              f"{self.raman_alpha_basis!r}")
        if self.noise_divisor not in ("clock", "gate"):
            raise ConfigError(
                f"noise divisor must be 'clock' or 'gate', got "
                f"{self.noise_divisor!r}"
            )


@_record
class SweepSpec:
    """Inclusive distance grid for a sweep."""

    from_km: float
    to_km: float
    step_km: float

    def __post_init__(self):
        _require_finite("sweep", **vars(self))
        if self.from_km > self.to_km:
            raise ConfigError(
                f"sweep range is empty: from {self.from_km} to {self.to_km}"
            )
        if self.step_km <= 0.0:
            raise ConfigError(f"sweep step must be > 0, got {self.step_km}")
        if self.from_km < 0.0:
            raise ConfigError(f"sweep start must be >= 0, got {self.from_km}")
        if self._span() >= _MAX_GRID_POINTS:
            raise ConfigError(f"sweep from {self.from_km} to {self.to_km} at "
                              f"{self.step_km} km exceeds {_MAX_GRID_POINTS} points")
        # A grid of two or more points gives strictly increasing distances
        # when step >= 2g, g = ulp(to). Proof: from >= 0, so every float up
        # to the binade top 2^e above `to` is spaced at most g apart, and
        # 2^e is a float. Under the point cap, floor(span) exceeds the exact
        # (to - from) / step by less than 1e-8, so each exact from + i * step
        # but the last is more than 0.99 step (1.98g) below `to` and rounds
        # below it. Below 2^e, i * step rounds by at most g / 2, and not
        # at all when step = 2g (each multiple of 2g there is a float), so
        # consecutive products, and hence consecutive exact sums from + i *
        # step, differ by more than g; each sum then rounds by at most g / 2,
        # so the rounded sums increase strictly. A product or sum at or
        # above 2^e rounds to at least 2^e > `to`, which only the last point
        # can reach, and `min` clips it to `to`, above every other point.
        if self._span() >= 1.0 and self.step_km < 2.0 * math.ulp(self.to_km):
            raise ConfigError(f"sweep step {self.step_km} km is below the "
                              f"float resolution at {self.to_km} km")

    def _span(self) -> float:
        """Steps from start to end; the grid has floor(span) + 1 points."""
        return (self.to_km - self.from_km) / self.step_km + 1e-9

    def distances(self) -> list[float]:
        return list(self._grid())

    def _grid(self):
        """The grid points, min(from + i * step, to), one at a time."""
        n = int(math.floor(self._span())) + 1
        return (min(self.from_km + i * self.step_km, self.to_km)
                for i in range(n))


@_record
class ResultRow:
    """One sweep point; its fields, in order, are the result schema."""

    distance_km: float
    launch_power_dbm: float
    quantum_loss_db: float
    classical_loss_db: float
    srs_rate_cps: float
    y0: float
    q_mu: float
    e_mu: float
    y1_lower: float
    e1_upper: float
    key_rate_bps: float
    classical_feasible: bool


RESULT_FIELDS = ResultRow._record_names


@_record
class ChannelState:
    """Intermediate quantities of one (scenario, distance) evaluation."""

    distance_km: float
    quantum_loss_db: float
    classical_loss_db: float
    min_launch_power_dbm: float
    launch_power_dbm: float
    srs_rate_cps: float
    y0: float
    eta: float
    classical_feasible: bool

    def channel_point(self) -> ChannelPoint:
        return ChannelPoint(self.eta, self.y0)


# Positions in the tuple of `_resolve`'s `channel(d)`, which holds the
# `ChannelState` fields after `distance_km`.
_CH_SRS, _CH_Y0, _CH_ETA, _CH_FEASIBLE = map(ChannelState._record_names[1:].index, (
    "srs_rate_cps", "y0", "eta", "classical_feasible"))


def _resolve(scenario: Scenario):
    """Validate once; return `(channel, key, certificate)`: `channel(d)`
    gives the `ChannelState` fields after `distance_km` (read by the `_CH_*`
    positions) by float arithmetic only, `key` the kernel, and
    `certificate(to_km, budget)` the `zero_on` of `max_secure_distance`, or
    None. `channel` takes d >= 0 unchecked: the evaluators check it on the
    way in (`_resolve_at`), and a sweep, a target or `max_secure_distance`
    checks its range. The link, Raman and Y0 constants are bound here; each
    step calls the statement its public function calls (`link._loss_db`,
    `link._transmittance`, `raman._srs_rate`, `decoy._y0_step`), so every
    value has their bits. Only the power floor, loss + sensitivity, is
    written here as in `classical_min_launch_power_dbm`. A quantum loss or
    floor that is not finite raises DomainError; the other fields are then
    finite (the mW and SRS steps raise, y0 is clamped, eta <= efficiency)."""
    alpha_q, il_q = _path(scenario.link, Band.QUANTUM)
    alpha_c, il_c = _path(scenario.link, Band.CLASSICAL)
    alpha_r = alpha_q if scenario.raman_alpha_basis is Band.QUANTUM else alpha_c
    rho = scenario.raman.rho_cps_per_mw_km
    cap = scenario.classical_launch_power_dbm
    sensitivity = scenario.receiver_sensitivity_dbm
    adaptive = scenario.adaptive_power
    detector, protocol = scenario.detector, scenario.protocol
    divisor = (detector.gate_hz if scenario.noise_divisor == "gate"
               else protocol.clock_hz)
    y0_of = _y0_step(_dark_yield(detector, protocol.clock_hz), divisor,
                     _Y0_MAX)
    efficiency = detector.efficiency
    inf = math.inf

    def channel(d: float) -> tuple:
        quantum_loss = _loss_db(alpha_q, il_q, d)
        classical_loss = _loss_db(alpha_c, il_c, d)
        needed = classical_loss + sensitivity
        if not quantum_loss < inf > needed:
            raise DomainError(f"link budget overflows a float at {d} km")
        launch = min(needed, cap) if adaptive else cap
        srs = _srs_rate(dbm_to_mw(launch), rho, d, alpha_r)
        # quantum_loss >= 0 for d >= 0: the check of `transmittance` holds
        return (quantum_loss, classical_loss, needed, launch, srs, y0_of(srs),
                _transmittance(quantum_loss) * efficiency,
                launch + _FEASIBILITY_TOL_DB >= needed)

    def closes(d: float) -> bool:
        # channel(d)'s `feasible`: an adaptive launch below the cap is the
        # power needed, which closes the link, so both modes compare the cap
        return cap + _FEASIBILITY_TOL_DB >= _loss_db(alpha_c, il_c, d) + sensitivity

    def certificate(to_km: float, budget: bool):
        # Whether no channel on [0, to_km] can raise: its losses, launch
        # power and P * rho * L never decrease with d. channel(to_km) raises
        # DomainError where a loss or the floor is not finite or the launch
        # power's mW overflow, and its SRS step only where P * rho * to_km
        # is infinite already.
        try:
            q_loss, c_loss, needed, launch, srs, y0, eta, feasible = channel(to_km)
            bounded = dbm_to_mw(launch) * rho * to_km < inf
        except DomainError:
            bounded = False
        if budget:
            def closed_off(a: float, b: float) -> bool | None:
                # Where a channel may raise, it is probed, as the search
                # always did. A block that closes at b closes throughout.
                if not (closes(a) if bounded else channel(a)[_CH_FEASIBLE]):
                    return True
                return None if closes(b) else False
            return closed_off
        zero = _rate_bound(scenario.intensities, protocol) if bounded else None
        if zero is None:
            return None

        def zero_on(a: float, b: float) -> bool | None:
            if a == b:
                return None     # a point costs what its rate costs
            ch = channel(a)
            srs = ch[_CH_SRS] * 10.0 ** (-alpha_r * (b - a) / 10.0)
            return zero(_transmittance(_loss_db(alpha_q, il_q, b)) * efficiency,
                        ch[_CH_ETA], y0_of(srs))
        return zero_on

    return channel, _kernel(scenario.intensities, protocol), certificate


def _point(channel, key, d: float) -> tuple:
    """The `ResultRow` fields at `d`, in `RESULT_FIELDS` order."""
    q_loss, c_loss, needed, launch, srs, y0, eta, feasible = channel(d)
    qmu, emu, qnu, enu, y1, e1, r, rate, clamps = key(eta, y0)
    return (d, launch, q_loss, c_loss, srs, y0, qmu, emu, y1, e1, rate, feasible)


def _resolve_at(scenario: Scenario, distance_km: float):
    """`channel` and `key` of `_resolve(scenario)` for a public evaluator at
    `distance_km`, which is checked first, as `channel` takes it unchecked."""
    _require_real("scenario", distance_km=distance_km)
    if not distance_km >= 0.0:
        raise ConfigError(f"link length must be >= 0 km, got {distance_km}")
    return _resolve(scenario)[:2]


def launch_power_dbm(scenario: Scenario, distance_km: float) -> float:
    """Classical launch power used at this distance (fixed or adaptive)."""
    return channel_state(scenario, distance_km).launch_power_dbm


def channel_state(scenario: Scenario, distance_km: float) -> ChannelState:
    """Evaluate the link budget and background yield at one distance. A
    loss or power floor that overflows a float raises DomainError."""
    channel, _ = _resolve_at(scenario, distance_km)
    return ChannelState(distance_km, *channel(distance_km))


def evaluate_at(scenario: Scenario, distance_km: float) -> ResultRow:
    """One full sweep point: link budget, noise, decoy bounds, key rate. A
    loss or power floor that overflows a float raises DomainError."""
    return ResultRow(*_point(*_resolve_at(scenario, distance_km), distance_km))


def _sweep_table(scenario: Scenario, sweep: SweepSpec) -> list[list]:
    """The `_point` tuples of the grid, in ascending distance, as a table
    of `_columns` chunks. The package's own errors pass through with their
    exit code; any other exception becomes a `ComputationError` naming the
    distance. The first grid point whose loss or power floor overflows a
    float raises DomainError. The distances are generated a chunk at a
    time, so only one chunk's are held."""
    grid = sweep._grid()
    chunk = list(islice(grid, _CHUNK_ROWS))
    # A scenario that fails to resolve is reported at the first point.
    table, d = [], chunk[0]
    try:
        channel, key, _ = _resolve(scenario)
        while chunk:
            rows = []
            for d in chunk:
                rows.append(_point(channel, key, d))
            table.append(_columns(rows))
            chunk = list(islice(grid, _CHUNK_ROWS))
    except QkdCoexError:
        raise
    except Exception as exc:
        raise ComputationError(
            f"sweep of {scenario.name!r} failed at {d} km: {exc}"
        ) from exc
    return table


def run_sweep(scenario: Scenario, sweep: SweepSpec) -> list[ResultRow]:
    """Evaluate the scenario on the sweep grid, in ascending distance."""
    return [ResultRow(*row) for chunk in _sweep_table(scenario, sweep)
            for row in zip(*chunk)]


# ---------------------------------------------------------------------------
# result emission
#
# A table is a list of chunks of up to `_CHUNK_ROWS` rows, each chunk the
# list of its columns in `RESULT_FIELDS` order (`_columns`). It is written a
# chunk at a time, each chunk formatted one column at a time, so the output
# is not held as one string; the exception is the JSON of a table holding an
# int, a NaN, an infinity, a numpy scalar or a feasibility that is no bool,
# which json writes in one piece. The bytes are those of
# `np.format_float_scientific(v, unique=True)` per CSV value and of
# `json.dumps(payload, indent=2) + "\n"`; a CSV value that is an int too
# large for a float, or a feasibility that neither is nor equals a bool,
# raises DomainError naming its field.

@functools.cache
def _scientific():
    """numpy's Dragon4 formatter without the argument checks of its public
    wrapper `np.format_float_scientific` (the fallback): the same strings.
    numpy is imported here, so a process that writes no CSV never loads it."""
    import numpy as np
    for module in ("numpy._core.multiarray", "numpy.core.multiarray"):
        try:
            return importlib.import_module(module).dragon4_scientific
        except (ImportError, AttributeError):
            pass
    return np.format_float_scientific


# Rows per chunk: a chunk's rows, and the strings formatted from it, are
# the only per-row objects alive at once.
_CHUNK_ROWS = 256
_CSV_HEADER = ",".join(RESULT_FIELDS) + "\n"
_CSV_ROW = ",".join(["%s"] * len(RESULT_FIELDS)) + "\n"
# What json.dumps(indent=2) writes for one row: repr for each number, as
# json does for finite floats, and the bool spelled out.
_JSON_ROW = "  {\n%s\n  }" % ",\n".join(
    [f'    "{f}": %r' for f in RESULT_FIELDS[:-1]]
    + [f'    "{RESULT_FIELDS[-1]}": %s'])
_FLOAT = {float}
_BOOL = {True: "true", False: "false"}


def _columns(rows) -> list:
    """The columns of a chunk of row tuples. A column of floats only is an
    `array('d')`, which holds and returns the same 64-bit values (-0.0 and
    NaN included) unboxed; any other column stays a tuple of its values, so
    an int, bool or numpy scalar keeps its type."""
    return [array("d", col) if set(map(type, col)) == _FLOAT else col
            for col in zip(*rows)]


def _csv_chunks(table: list[list]):
    scientific = _scientific()
    yield _CSV_HEADER
    for *numbers, feasible in table:
        try:
            columns = [[scientific(v, unique=True) for v in col]
                       for col in numbers]
        except OverflowError:   # an int too large for a float
            _require_real("result", **dict(zip(RESULT_FIELDS, numbers)))
            raise
        texts = []
        for f in feasible:
            try:
                texts.append(_BOOL[f])
            except (KeyError, TypeError):
                raise DomainError(f"result {RESULT_FIELDS[-1]} must be a "
                                  f"bool, got {f!r}") from None
        columns.append(texts)
        yield "".join(map(_CSV_ROW.__mod__, zip(*columns)))


def _json_chunks(table: list[list]):
    if not table or not all(all(type(col) is array and _finite(col)
                                for col in numbers)
                            and set(map(type, feasible)) == {bool}
                            for *numbers, feasible in table):
        # [], ints, NaN, infinities, numpy scalars and a feasibility that
        # is no bool as json writes them.
        payload = [dict(zip(RESULT_FIELDS, row))
                   for chunk in table for row in zip(*chunk)]
        yield json.dumps(payload, indent=2) + "\n"
        return
    opening = "[\n"
    for *numbers, feasible in table:
        rows = zip(*numbers, [_BOOL[f] for f in feasible])
        yield opening + ",\n".join(map(_JSON_ROW.__mod__, rows))
        opening = ",\n"
    yield "\n]\n"


def _chunks(table: list[list], format: str):
    """The text of `table` in `format`, as successive pieces."""
    if format == "csv":
        return _csv_chunks(table)
    if format == "json":
        return _json_chunks(table)
    raise ConfigError(f"unknown output format {format!r}")


def _write(chunks, path: str | os.PathLike) -> None:
    """Write the text pieces to `path`. A path that cannot be opened is a
    usage problem (`ConfigError`); an error while writing to the open file
    is a failure (`ComputationError`)."""
    try:
        fh = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write results to {path}: {exc}") from exc
    try:
        with fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise ComputationError(f"cannot write results to {path}: {exc}") from exc


def _table(rows: Sequence[ResultRow]) -> list[list]:
    """`rows` as a table of `_columns` chunks, as `_sweep_table` builds."""
    rows, table = map(operator.attrgetter(*RESULT_FIELDS), rows), []
    while chunk := list(islice(rows, _CHUNK_ROWS)):
        table.append(_columns(chunk))
    return table


def rows_to_csv(rows: Sequence[ResultRow]) -> str:
    return "".join(_csv_chunks(_table(rows)))


def rows_to_json(rows: Sequence[ResultRow]) -> str:
    return "".join(_json_chunks(_table(rows)))


def emit_results(rows: Sequence[ResultRow], format: str,
                 path: str | os.PathLike) -> None:
    """Write rows as CSV or JSON; numbers keep full round-trip precision.
    All text is formatted before `path` is opened, so a `QkdCoexError` other
    than a failed write (`ComputationError`) leaves `path` as it was."""
    _write(list(_chunks(_table(rows), format)), path)


# ---------------------------------------------------------------------------
# maximum secure distance

def max_secure_distance(scenario: Scenario, from_km: float = 0.0,
                        to_km: float = 300.0, *,
                        require_classical_feasible: bool = True,
                        coarse_step_km: float = 1.0,
                        resolution_km: float = 0.01) -> DistanceResult:
    """Largest distance with a positive secure key rate.

    By default a distance only counts when the classical channel closes at
    the launch power in use (launch >= loss + receiver sensitivity); beyond
    that point the coexistence link as a whole is not operable. Pass
    require_classical_feasible=False for the rate-only cliff. A negative
    `from_km` is rejected before the search: the top-down coarse scan would
    not reach it when a higher distance has a positive rate.

    The coarse scan skips each block [a, b] of grid points that a
    certificate proves to have rate 0 (`find_rate_cliff`), so the cliff is
    that of the plain top-down scan. Its proof obligations, for every d in
    [a, b]:

    - Budget on: the classical link cannot close at a. Feasibility holds on
      a prefix: every attenuation lies in (0, 1) dB/km and every insertion
      loss is >= 0, so with round-to-nearest arithmetic the power needed
      never decreases with d, while the launch power in use is the cap or
      min(needed, cap). A block that closes at b closes throughout, and is
      scanned point by point; one that closes at a but not at b is split.
    - Budget off: the rate is 0 on a box that holds (eta(d), Y0(d)). eta(d)
      lies in [eta(b), eta(a)], and as the launch power never decreases,
      Y0(d) is at least the Y0 of SRS(a) 10^(-alpha (b - a) / 10).
      `decoy._rate_bound` proves the rate 0 on that box for mu <= 1, with a
      margin of 1e-12 times the single-photon term plus the rounding scale
      of the gains, far above the ulps by which that Y0 can exceed Y0(d).
      It is used only when no channel on [0, to_km] can raise: both losses
      and the launch power in mW at to_km are finite, and so is that power
      * rho * to_km. Otherwise the search is the plain scan.

    The budget-on search has no rate bound: on the presets at most 25 grid
    points lie between the rate-only and the classical cliff, where testing
    the bound cost more than the evaluations it saved. Without the budget
    the search raises where the plain scan does. With it, an error from a
    channel the search evaluates propagates (a loss or power floor that
    overflows a float, a launch power whose milliwatts overflow); a point
    above the classical cliff is skipped.
    """
    if from_km < 0.0:
        raise ConfigError(f"link length must be >= 0 km, got {from_km}")
    # The certificate reads the losses at to_km, so the range is checked
    # before it is built.
    _check_search(from_km, to_km, coarse_step_km, resolution_km)
    channel, key, certificate = _resolve(scenario)

    def rate(d: float) -> float:
        ch = channel(d)
        return (0.0 if require_classical_feasible and not ch[_CH_FEASIBLE]
                else key(ch[_CH_ETA], ch[_CH_Y0])[_KEY_RATE])

    return find_rate_cliff(rate, from_km, to_km, coarse_step_km, resolution_km,
                           certificate(to_km, require_classical_feasible))


# ---------------------------------------------------------------------------
# calibration

@_record
class CalibrationTarget:
    """Reference operating point: distance, secure key rate and QBER."""

    distance_km: float
    key_rate_bps: float
    qber: float

    def __post_init__(self):
        _require_finite("target", **vars(self))
        if self.distance_km < 0.0:
            raise ConfigError(f"target distance must be >= 0, got {self.distance_km}")
        if self.key_rate_bps <= 0.0:
            raise ConfigError(f"target rate must be > 0, got {self.key_rate_bps}")
        if not 0.0 <= self.qber <= 1.0:
            raise ConfigError(f"target QBER must be in [0, 1], got {self.qber}")


@_record
class TargetResidual:
    """Simulated versus target values at one calibration point."""

    scenario: str
    distance_km: float
    key_rate_bps: float
    target_rate_bps: float
    qber: float
    target_qber: float

    @property
    def rate_ratio(self) -> float:
        return self.key_rate_bps / self.target_rate_bps

    @property
    def qber_delta(self) -> float:
        return self.qber - self.target_qber


ED_BOUNDS = (0.0, 0.05)
F_BOUNDS = (1.0, 1.5)
ED_STEP = 0.001
F_STEP = 0.01


@_record
class CalibrationReport:
    """Fitted shared (misalignment error, EC efficiency) and residuals."""

    misalignment_error: float
    ec_efficiency: float
    residuals: tuple[TargetResidual, ...] = ()
    objective: float = math.inf

    def __post_init__(self):
        _freeze(self, tuple, "residuals")
        if not ED_BOUNDS[0] <= self.misalignment_error <= ED_BOUNDS[1]:
            raise ConfigError(
                f"misalignment error {self.misalignment_error} outside "
                f"{ED_BOUNDS}"
            )
        if not F_BOUNDS[0] <= self.ec_efficiency <= F_BOUNDS[1]:
            raise ConfigError(
                f"EC efficiency {self.ec_efficiency} outside {F_BOUNDS}"
            )


_GOLDEN_TOL = 1e-6


def _golden_min(fn, lo: float, hi: float) -> float:
    """Deterministic golden-section minimizer on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > _GOLDEN_TOL:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def _calibration_points(scenarios: Sequence[Scenario],
                        targets: Sequence[CalibrationTarget]) -> list[tuple]:
    """Per target, resolved once: (p, emu_at, rest, q_sift, clock_hz, p_mu,
    log_rate, qber), p the prefix of its `_decoy_steps` at its channel's
    (eta, y0) and `rest` None when the yield bound vanishes."""
    points = []
    for scen, tgt in zip(scenarios, targets):
        channel, _, _ = _resolve(scen)
        ch = channel(tgt.distance_km)
        intensities, protocol = scen.intensities, scen.protocol
        prefix, emu_at, rest = _decoy_steps(intensities.mu, intensities.nu)
        p = prefix(ch[_CH_ETA], ch[_CH_Y0])
        points.append((p, emu_at, None if p[_PREFIX_Y1] <= 0.0 else rest,
                       protocol.sifting_factor, protocol.clock_hz,
                       intensities.p_mu, math.log(tgt.key_rate_bps), tgt.qber))
    return points


def _lower_bound(points: list[tuple], ed: float) -> float:
    """The QBER terms at `ed` summed in target order from 0.0, which is <=
    every cell of the row at `ed`; inf when a yield bound vanishes. It needs
    each target's Emu only."""
    total = 0.0
    for p, emu_at, rest, q_sift, clock_hz, p_mu, log_rate, qber in points:
        if rest is None:
            return math.inf
        total += ((emu_at(p, ed) - qber) / 0.005) ** 2
    return total


def _row_terms(points: list[tuple], ed: float) -> list[tuple] | None:
    """What a cell of the row at `ed` needs of each target: its `terms`,
    rate constants, log target rate and QBER term. None when a yield bound
    vanishes: the rate is then zero at every f. It runs once per row before
    any cell, which is exact: float arithmetic on valid inputs cannot raise."""
    row = []
    for p, emu_at, rest, q_sift, clock_hz, p_mu, log_rate, qber in points:
        if rest is None:
            return None
        emu = emu_at(p, ed)
        row.append((rest(p, ed, emu)[_REST_TERMS], q_sift, clock_hz, p_mu,
                    log_rate, ((emu - qber) / 0.005) ** 2))
    return row


def _cell(row: list[tuple] | None, f: float,
          bound: float = math.inf) -> float:
    """The objective at f on a `_row_terms` row: the f tails of its targets
    added in order, inf at the first zero rate. Each target adds a term >=
    0, and rounded float addition is monotone in each argument, so the
    running total never decreases; the cell stops once it reaches `bound`.
    A cell below `bound` keeps its bits, and any other returns a value >=
    `bound`."""
    if row is None:
        return math.inf
    total = 0.0
    for terms, q_sift, clock_hz, p_mu, log_rate, qber_term in row:
        rate = _rate_per_pulse(terms, f, q_sift) * clock_hz * p_mu
        if rate <= 0.0:
            return math.inf
        total += (math.log(rate) - log_rate) ** 2 + qber_term
        if total >= bound:
            break
    return total


def _block_bound(row: list[tuple] | None, f_lo: float,
                 f_hi: float) -> float:
    """A lower bound on every cell of a `_row_terms` row with f in [f_lo,
    f_hi], from each target's rate at the two ends; inf on a None row and
    once a rate at f_lo is zero, as the rate is then zero over the block.
    The rounded rate never rises with f (-Qmu <= 0, H2 >= 0, and q, clock
    and p_mu are > 0), so over the block log r lies between log r(f_hi) and
    log r(f_lo), each widened by one ulp, as `math.log` is faithful but
    need not be monotone. A target's term is then at least max(0, L - log
    r(f_lo), log r(f_hi) - L)^2 plus its QBER term; the square is the
    cell's `** 2`, whose error is below the gap between adjacent squares.
    The terms are added in target order, so float monotonicity keeps the
    sum <= `_cell`."""
    if row is None:
        return math.inf
    total = 0.0
    for terms, q_sift, clock_hz, p_mu, log_rate, qber_term in row:
        high = _rate_per_pulse(terms, f_lo, q_sift) * clock_hz * p_mu
        if high <= 0.0:
            return math.inf
        low = _rate_per_pulse(terms, f_hi, q_sift) * clock_hz * p_mu
        below = log_rate - math.nextafter(math.log(high), math.inf)
        above = (math.nextafter(math.log(low), -math.inf) - log_rate
                 if low > 0.0 else 0.0)
        total += max(below, above, 0.0) ** 2 + qber_term
    return total


def calibrate(scenarios: Sequence[Scenario],
              targets: Sequence[CalibrationTarget]) -> CalibrationReport:
    """Fit the shared free parameters (misalignment error e_d, EC
    efficiency f) to the reference operating points.

    Deterministic grid search (e_d step 0.001 over [0, 0.05], f step 0.01
    over [1.0, 1.5]) minimizing

        sum_i (ln R_i - ln R_target_i)^2 + ((E_i - E_target_i) / 0.005)^2,

    followed by alternating golden-section refinement of each coordinate
    within one grid cell of the best point.

    What depends on a target's (eta, y0) alone is computed once
    (`_calibration_points`). The grid is a best-first branch and bound with
    one cut, just above the best cell so far. A node is a row, bounded by
    its QBER terms (`_lower_bound`), or a block of f columns of a visited
    row, bounded by `_block_bound`; the node with the smallest (bound, row,
    first column) comes first, and the search stops once that bound reaches
    the cut. A row's f-independent terms (`_row_terms`) are computed when
    its node comes up, and its first block is the whole row. A block of
    1-2 cells is evaluated, each cell stopping once its total reaches the
    cut (`_cell`), and a larger one is split in two halves; a half of 1-2
    cells keeps its parent's bound, as a bound would cost as much as its
    cells. Every bound is <= each cell it covers, so what the cut drops is
    above the best, while a cell equal to the best keeps its bits. The best
    is the smallest (value, row, column), so ties go to the first cell in
    row-major order in whatever order the blocks come up, and the report
    keeps the bits of the full scan. The golden-section steps use exact
    values: a step in e_d evaluates its one cell, and the steps in f reuse
    the row of their e_d.
    """
    if not targets:
        raise ConfigError("calibration needs at least one target")
    if len(scenarios) != len(targets):
        raise ConfigError(
            f"got {len(scenarios)} scenarios for {len(targets)} targets"
        )

    points = _calibration_points(scenarios, targets)
    n_ed = int(round((ED_BOUNDS[1] - ED_BOUNDS[0]) / ED_STEP)) + 1
    n_f = int(round((F_BOUNDS[1] - F_BOUNDS[0]) / F_STEP)) + 1
    fs = [F_BOUNDS[0] + j * F_STEP for j in range(n_f)]
    eds = [ED_BOUNDS[0] + i * ED_STEP for i in range(n_ed)]
    # Nodes (bound, row, first column, last column, the row's terms or None
    # before it is built) in ascending order; (bound, row, first column) is
    # unique, so no two nodes compare their terms. The frontier is small,
    # so it is a sorted list: `bisect` is loaded already, where `heapq`
    # would load one more extension module. Nodes that reach the cut are
    # dropped as it tightens, and with them the rows only they hold.
    nodes = sorted((_lower_bound(points, ed), i, 0, n_f - 1, None)
                   for i, ed in enumerate(eds))
    best = (math.inf, 0, 0)
    cut = math.inf
    while nodes and nodes[0][0] < cut:
        bound, i, j0, j1, row = nodes.pop(0)
        if row is None:
            row = _row_terms(points, eds[i])
            blocks = [(j0, j1)]
        elif j1 - j0 < 2:
            for j in range(j0, j1 + 1):
                best = min(best, (_cell(row, fs[j], cut), i, j))
            cut = math.nextafter(best[0], math.inf)
            del nodes[bisect_left(nodes, (cut,)):]
            continue
        else:
            mid = (j0 + j1) // 2
            blocks = [(j0, mid), (mid + 1, j1)]
        for lo, hi in blocks:
            child = (_block_bound(row, fs[lo], fs[hi]) if hi - lo >= 2
                     else bound)
            if child < cut:
                insort(nodes, (child, i, lo, hi, row))
    best, best_i, best_j = best
    if not math.isfinite(best):
        raise CalibrationError(
            f"objective non-finite over the whole grid "
            f"({n_ed}x{n_f} points); the key rate is zero at every target"
        )

    ed, f = eds[best_i], fs[best_j]
    for _ in range(3):
        ed = _golden_min(lambda x: _cell(_row_terms(points, x), f),
                         max(ED_BOUNDS[0], ed - ED_STEP),
                         min(ED_BOUNDS[1], ed + ED_STEP))
        row = _row_terms(points, ed)
        f = _golden_min(lambda x: _cell(row, x),
                        max(F_BOUNDS[0], f - F_STEP),
                        min(F_BOUNDS[1], f + F_STEP))
    refined = _cell(row, f)
    if refined > best:
        ed, f, refined = eds[best_i], fs[best_j], best

    # Each target's rate and Emu are those of `key(eta, y0, ed, f)`: the
    # same steps on the same prefix, and with the fit finite no yield bound
    # vanished. The records are built positionally, their cheapest
    # `__init__` path.
    residuals = []
    for scen, tgt, point in zip(scenarios, targets, points):
        p, emu_at, rest, q_sift, clock_hz, p_mu, log_rate, qber = point
        emu = emu_at(p, ed)
        rate = (_rate_per_pulse(rest(p, ed, emu)[_REST_TERMS], f, q_sift)
                * clock_hz * p_mu)
        residuals.append(TargetResidual(scen.name, tgt.distance_km,
                                        rate, tgt.key_rate_bps, emu, qber))
    return CalibrationReport(ed, f, tuple(residuals), refined)


def apply_calibration(scenario: Scenario, misalignment_error: float,
                      ec_efficiency: float) -> Scenario:
    """Scenario copy with the calibrated free parameters applied."""
    protocol = _replace(scenario.protocol,
                        misalignment_error=misalignment_error,
                        ec_efficiency=ec_efficiency)
    return _replace(scenario, protocol=protocol)
