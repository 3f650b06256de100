import copy
import dataclasses
import json
import math
import pickle
import random
import re
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkdcoex import config
from qkdcoex import decoy as decoy_mod
from qkdcoex import scenario as scenario_mod
from qkdcoex.config import load_scenario, load_sweep
from qkdcoex.decoy import (_KEY_RATE, _PREFIX_Q_MU, _PREFIX_Q_NU,
                           _PREFIX_Y1, _REST_TERMS, DecoyIntensities,
                           DistanceResult, _decoy_steps, _rate_per_pulse,
                           background_yield, dbm_to_mw, find_rate_cliff,
                           key_rate_details)
from qkdcoex.errors import (CalibrationError, ConfigError, DomainError,
                            NoSecureDistanceError, QkdCoexError)
from qkdcoex.link import (Band, FiberSpec, Mode, SchemeName, _path,
                          total_loss_db, transmittance)
from qkdcoex.presets import REFERENCE_TARGETS, get_preset, preset_names
from qkdcoex.raman import srs_noise_rate_cps
from qkdcoex.scenario import (ED_BOUNDS, ED_STEP, F_BOUNDS, F_STEP,
                              RESULT_FIELDS, _CH_ETA, _CH_FEASIBLE, _CH_SRS,
                              _CH_Y0, CalibrationReport, CalibrationTarget,
                              SweepSpec, TargetResidual, _block_bound,
                              _calibration_points, _cell, _golden_min,
                              _lower_bound, _point, _resolve, _row_terms,
                              apply_calibration, calibrate, channel_state,
                              emit_results, evaluate_at, launch_power_dbm,
                              max_secure_distance, rows_to_csv, rows_to_json,
                              run_sweep)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "qkdbench"))
import inputs  # noqa: E402
from test_golden import FIG4_CLIFFS, MAX_DISTANCE_RANGES  # noqa: E402

EXPECTED_HEADER = ("distance_km,launch_power_dbm,quantum_loss_db,"
                   "classical_loss_db,srs_rate_cps,y0,q_mu,e_mu,y1_lower,"
                   "e1_upper,key_rate_bps,classical_feasible")


def _rebuild(value):
    """An equal value built anew through every constructor, maps included."""
    if dataclasses.is_dataclass(value):
        return type(value)(**{f.name: _rebuild(getattr(value, f.name))
                              for f in dataclasses.fields(value)})
    if isinstance(value, dict):
        return {key: _rebuild(item) for key, item in value.items()}
    if isinstance(value, tuple):
        return tuple(map(_rebuild, value))
    return value


class TestPresets:
    def test_names(self):
        assert preset_names() == ("smf", "lp01in", "lp02in", "fig4-power",
                                  "fig4-power-fmf", "fig4-full")

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            get_preset("smg")

    @pytest.mark.parametrize("name", preset_names())
    def test_shared_instance(self, name):
        assert get_preset(name) is get_preset(name)

    @pytest.mark.parametrize("name", preset_names())
    def test_hash_of_a_fresh_build(self, name):
        preset = get_preset(name)
        fresh = _rebuild(preset)
        assert fresh is not preset
        assert (fresh.link.fiber.attenuation_db_per_km
                is not preset.link.fiber.attenuation_db_per_km)
        assert fresh == preset and repr(fresh) == repr(preset)
        assert hash(fresh) == hash(preset)

    @pytest.mark.parametrize("name", preset_names())
    @pytest.mark.parametrize("round_trip", [
        copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))])
    def test_round_trip(self, name, round_trip):
        preset = get_preset(name)
        twin = round_trip(preset)
        assert twin == preset and hash(twin) == hash(preset)
        assert repr(twin) == repr(preset)
        with pytest.raises(TypeError):
            twin.link.fiber.attenuation_db_per_km.clear()

    @pytest.mark.parametrize("name", preset_names())
    def test_replace_leaves_the_preset_unchanged(self, name):
        preset = get_preset(name)
        before = repr(preset)
        fiber = FiberSpec(preset.link.fiber.kind, {
            key: 0.5 for key in preset.link.fiber.attenuation_db_per_km})
        variant = replace(preset, name="variant", adaptive_power=True,
                          link=replace(preset.link, fiber=fiber))
        assert variant.link.fiber.attenuation_db_per_km != (
            preset.link.fiber.attenuation_db_per_km)
        assert get_preset(name) is preset and repr(preset) == before

    def test_lp02in_parameters(self):
        s = get_preset("lp02in")
        assert s.raman.rho_cps_per_mw_km == 2655.0
        assert s.link.scheme.quantum_mode is Mode.LP01
        # quantum path couplers cost 2.60 + 2.30 dB
        row = evaluate_at(s, 0.0)
        assert row.quantum_loss_db == pytest.approx(4.90, abs=1e-12)
        assert row.classical_loss_db == pytest.approx(6.90, abs=1e-12)

    def test_fig4_full_parameters(self):
        s = get_preset("fig4-full")
        assert s.adaptive_power
        assert s.detector.efficiency == 0.20
        assert s.detector.dark_count_per_gate == pytest.approx(1.84e-7,
                                                               rel=1e-12)
        row = evaluate_at(s, 100.0)
        assert row.quantum_loss_db == pytest.approx(0.165 * 100 + 0.85,
                                                    abs=1e-12)

    def test_smf_defaults(self):
        s = get_preset("smf")
        assert s.classical_launch_power_dbm == -2.60
        assert s.receiver_sensitivity_dbm == -33.0
        assert not s.adaptive_power
        assert s.protocol.clock_hz == 625e6
        assert s.intensities.p_mu == 0.75


class TestLaunchPower:
    def test_fixed(self):
        assert launch_power_dbm(get_preset("smf"), 80.0) == -2.60

    def test_adaptive_uses_minimum(self):
        s = get_preset("fig4-power")
        # classical loss at 50 km: 0.257 * 50 + 6.90 = 19.75 dB
        assert launch_power_dbm(s, 50.0) == pytest.approx(19.75 - 33.0,
                                                          abs=1e-12)

    def test_adaptive_capped_at_reference(self):
        s = get_preset("fig4-power")
        # at 120 km the required power exceeds the -2.60 dBm reference
        needed = 0.257 * 120 + 6.90 - 33.0
        assert needed > -2.60
        assert launch_power_dbm(s, 120.0) == -2.60

    def test_feasibility_flag(self):
        s = get_preset("smf")
        # fixed -2.60 dBm closes the link up to 30.4 dB of classical loss
        assert evaluate_at(s, 150.0).classical_feasible
        assert not evaluate_at(s, 160.0).classical_feasible

    def test_adaptive_feasible_below_crossover(self):
        s = get_preset("fig4-full")
        for d in (0.0, 50.0, 100.0, 150.0, 175.0):
            assert evaluate_at(s, d).classical_feasible
        assert not evaluate_at(s, 180.0).classical_feasible

    # 10**(4000/10) mW overflows a float.
    @pytest.mark.parametrize("call", (
        lambda s: evaluate_at(s, 10.0),
        lambda s: channel_state(s, 10.0),
        lambda s: max_secure_distance(s)))
    def test_overflowing_power_is_domain_error(self, call):
        s = replace(get_preset("smf"), classical_launch_power_dbm=4000.0)
        with pytest.raises(DomainError, match="4000.0 dBm"):
            call(s)

    # At 1e308 km the quantum loss (0.19e308 dB) is finite but the power
    # floor, 0.192e308 dB + 1.7e308 dBm, is not.
    @pytest.mark.parametrize("call", (
        lambda s: evaluate_at(s, 1e308),
        lambda s: channel_state(s, 1e308),
        lambda s: run_sweep(s, SweepSpec(1e308, 1e308, 1.0)),
        lambda s: max_secure_distance(s, 1e308, 1e308,
                                      require_classical_feasible=False)))
    def test_overflowing_power_floor_is_domain_error(self, call):
        s = replace(get_preset("smf"), receiver_sensitivity_dbm=1.7e308)
        with pytest.raises(DomainError, match=re.escape(
                "link budget overflows a float at 1e+308 km")):
            call(s)


@pytest.mark.parametrize("basis", ["quantum", None])
def test_raman_alpha_basis_must_be_a_band(basis):
    # `_resolve` picks the Raman attenuation by identity with Band.QUANTUM,
    # so any other value would silently mean the classical one.
    with pytest.raises(ConfigError, match="Raman alpha basis must be a Band"):
        replace(get_preset("lp01in"), raman_alpha_basis=basis)


@pytest.mark.parametrize("adaptive", ["no", 1, None])
def test_adaptive_power_must_be_a_bool(adaptive):
    # `_resolve` reads the flag by truthiness, so "no" would mean adaptive.
    with pytest.raises(ConfigError, match="adaptive power must be a bool"):
        replace(get_preset("smf"), adaptive_power=adaptive)


def test_channel_point_of_a_channel_state():
    state = channel_state(get_preset("lp02in"), 86.0)
    point = state.channel_point()
    assert (point.eta, point.y0) == (state.eta, state.y0)
    assert 0.0 < point.eta < 1.0 and 0.0 < point.y0 < 1.0


def _near_resolution(start, ulps, steps):
    """A range of `ulps` float spacings from `start`, and a step of `steps`
    spacings at its end."""
    length = ulps * math.ulp(start)
    return start, length, steps * math.ulp(start + length)


# Sweep ranges as test_decoy's coarse-grid ranges, with every start >= 0:
# ordinary ones, ones whose step is a few float spacings at the end (on
# either side of the 2-spacing bound), and integer ones.
_SWEEP_RANGES = st.one_of(
    st.tuples(st.floats(0.0, 400.0), st.floats(0.0, 300.0),
              st.floats(0.01, 40.0)),
    st.builds(_near_resolution,
              st.sampled_from([0.5, 1e15, 2.0**52, 2.0**53 - 64.0, 1e16, 1e17]),
              st.integers(1, 64), st.floats(0.25, 4.0)),
    st.tuples(st.integers(0, 300), st.integers(0, 300), st.integers(1, 40)),
)


class TestSweep:
    def test_grid_size(self):
        for spec, size in ((SweepSpec(0.0, 100.0, 1.0), 101),
                           (SweepSpec(0.0, 0.3, 0.1), 4)):
            rows = run_sweep(get_preset("smf"), spec)
            assert len(rows) == size
            assert rows[0].distance_km == spec.from_km
            assert rows[-1].distance_km == spec.to_km

    def test_single_point(self):
        # A sweep resolves its scenario once; each row must equal the one a
        # per-call evaluate_at gives, and share its fields with
        # channel_state and launch_power_dbm.
        for name in preset_names():
            scenario = get_preset(name)
            for d in (0.0, 0.01, 63.0, 91.44, 179.09, 250.0, 300.0):
                rows = run_sweep(scenario, SweepSpec(d, d, 1.0))
                assert rows == [evaluate_at(scenario, d)]
                state = channel_state(scenario, d)
                assert launch_power_dbm(scenario, d) == state.launch_power_dbm
                assert (state.distance_km, state.launch_power_dbm,
                        state.quantum_loss_db, state.classical_loss_db,
                        state.srs_rate_cps, state.y0,
                        state.classical_feasible) == (
                    rows[0].distance_km, rows[0].launch_power_dbm,
                    rows[0].quantum_loss_db, rows[0].classical_loss_db,
                    rows[0].srs_rate_cps, rows[0].y0,
                    rows[0].classical_feasible)
                assert state.min_launch_power_dbm == (
                    state.classical_loss_db + scenario.receiver_sensitivity_dbm)

    def test_ascending_distance(self):
        rows = run_sweep(get_preset("lp01in"), SweepSpec(0.0, 50.0, 2.5))
        distances = [r.distance_km for r in rows]
        assert distances == sorted(distances)

    def test_no_rate_revival(self):
        for name in ("smf", "lp01in", "lp02in"):
            rows = run_sweep(get_preset(name), SweepSpec(0.0, 200.0, 1.0))
            seen_zero = False
            for row in rows:
                if seen_zero:
                    assert row.key_rate_bps == 0.0
                seen_zero = seen_zero or row.key_rate_bps == 0.0

    def test_improvement_ordering(self):
        # fig4-full >= fig4-power-fmf >= fig4-power >= lp02in baseline
        sweeps = {name: run_sweep(get_preset(name), SweepSpec(0.0, 160.0, 5.0))
                  for name in ("lp02in", "fig4-power", "fig4-power-fmf",
                               "fig4-full")}
        for base, better in (("lp02in", "fig4-power"),
                             ("fig4-power", "fig4-power-fmf"),
                             ("fig4-power-fmf", "fig4-full")):
            for lo, hi in zip(sweeps[base], sweeps[better]):
                if lo.key_rate_bps > 0.0 and hi.key_rate_bps > 0.0:
                    assert hi.key_rate_bps >= lo.key_rate_bps * (1 - 1e-12)

    def test_invalid_spec(self):
        with pytest.raises(ConfigError):
            SweepSpec(10.0, 5.0, 1.0)
        with pytest.raises(ConfigError):
            SweepSpec(0.0, 5.0, 0.0)
        for bad in ((math.nan, 5.0, 1.0), (0.0, math.nan, 1.0),
                    (0.0, 5.0, math.nan), (0.0, math.inf, 1.0),
                    (0.0, 5.0, math.inf), (-math.inf, 5.0, 1.0)):
            with pytest.raises(ConfigError, match="finite"):
                SweepSpec(*bad)

    def test_grid_size_cap(self):
        # Checked from the computed size alone: no grid is built here.
        SweepSpec(0.0, 999_999.0, 1.0)      # 1,000,000 points: allowed
        for spec in ((0.0, 1_000_000.0, 1.0), (0.0, 1e-200, 1e-300)):
            with pytest.raises(ConfigError, match="exceeds 1000000 points"):
                SweepSpec(*spec)

    def test_step_below_float_resolution(self):
        # At 1e17 km floats are 16 km apart, so a 1 km step would repeat
        # distances; a single point there needs no step at all.
        with pytest.raises(ConfigError) as exc:
            SweepSpec(1e17, 1.0000000000000016e17, 1.0)
        assert str(exc.value) == ("sweep step 1.0 km is below the float "
                                  "resolution at 1.0000000000000016e+17 km")
        assert SweepSpec(1e17, 1e17, 1.0).distances() == [1e17]
        assert SweepSpec(1e17, 1.0000000000000016e17, 32.0).distances() == [
            1e17 + 16.0 * i for i in range(0, 12, 2)]

    @given(case=_SWEEP_RANGES)
    @example(case=(1e17, 64.0, 32.0))                   # step = 2 ulp(to)
    @example(case=(1e17, 64.0, math.nextafter(32.0, 0.0)))
    @example(case=(2.0**53 - 64.0, 64.0, 4.0))          # to = 2**53
    @example(case=(2.0**53 - 64.0, 64.0, 3.999))
    def test_accepted_grid_strictly_increases(self, case):
        from_km, length, step = case
        to_km = from_km + length
        try:
            spec = SweepSpec(from_km, to_km, step)
        except ConfigError as exc:
            assert str(exc) == (f"sweep step {step} km is below the float "
                                f"resolution at {to_km} km")
            assert step < 2.0 * math.ulp(to_km)
            return
        distances = spec.distances()
        assert distances[0] == from_km
        assert all(a < b for a, b in zip(distances, distances[1:]))
        assert all(d <= to_km for d in distances)

    def test_srs_matches_direct_formula(self):
        s = get_preset("smf")
        row = evaluate_at(s, 50.0)
        expected = dbm_to_mw(-2.60) * 12076.0 * 50.0 * 10 ** (-0.190 * 50 / 10)
        assert row.srs_rate_cps == pytest.approx(expected, rel=1e-12)
        assert row.y0 == pytest.approx(2.4e-6 + expected / 625e6, rel=1e-12)


class TestEmission:
    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_results([], "csv", path)
        assert path.read_text(encoding="utf-8") == EXPECTED_HEADER + "\n"

    def test_single_row_field_count(self, tmp_path):
        rows = [evaluate_at(get_preset("smf"), 63.0)]
        path = tmp_path / "one.csv"
        emit_results(rows, "csv", path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert lines[0] == EXPECTED_HEADER
        assert len(lines[1].split(",")) == 12

    def test_csv_round_trip(self):
        rows = run_sweep(get_preset("lp02in"), SweepSpec(0.0, 100.0, 10.0))
        lines = rows_to_csv(rows).splitlines()
        header = lines[0].split(",")
        for line, row in zip(lines[1:], rows):
            fields = dict(zip(header, line.split(",")))
            for name in header:
                original = getattr(row, name)
                if name == "classical_feasible":
                    assert fields[name] == ("true" if original else "false")
                elif original == 0.0:
                    assert float(fields[name]) == 0.0
                else:
                    assert math.isclose(float(fields[name]), original,
                                        rel_tol=1e-12)

    def test_json_round_trip(self):
        rows = run_sweep(get_preset("smf"), SweepSpec(0.0, 60.0, 20.0))
        payload = json.loads(rows_to_json(rows))
        assert len(payload) == 4
        for entry, row in zip(payload, rows):
            assert entry["distance_km"] == row.distance_km
            assert entry["key_rate_bps"] == row.key_rate_bps
            assert entry["classical_feasible"] is row.classical_feasible

    def test_determinism(self):
        sweep = SweepSpec(0.0, 100.0, 1.0)
        a = rows_to_csv(run_sweep(get_preset("lp02in"), sweep))
        b = rows_to_csv(run_sweep(get_preset("lp02in"), sweep))
        assert a == b

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ConfigError):
            emit_results([], "xml", tmp_path / "x.xml")


class TestNegativeDistance:
    @pytest.mark.parametrize("evaluate", [
        channel_state, evaluate_at, launch_power_dbm,
        lambda s, d: max_secure_distance(s, from_km=d)])
    @pytest.mark.parametrize("name", ["smf", "fig4-full"])
    def test_rejected(self, evaluate, name):
        with pytest.raises(ConfigError, match="link length must be >= 0"):
            evaluate(get_preset(name), -1.0)

    @pytest.mark.parametrize("evaluate", [
        channel_state, evaluate_at, launch_power_dbm])
    def test_nan_rejected(self, evaluate):
        with pytest.raises(ConfigError, match="link length must be >= 0"):
            evaluate(get_preset("smf"), math.nan)


class TestMaxDistance:
    def test_fig4_full_budget_limited(self):
        result = max_secure_distance(get_preset("fig4-full"), 0.0, 300.0)
        # classical budget crossover: (33 - 0.85 - 2.60) / 0.165 km
        assert result.distance_km == pytest.approx(179.0909, abs=0.02)
        assert not result.at_upper_boundary

    def test_rate_only_reaches_further(self):
        gated = max_secure_distance(get_preset("fig4-full"), 0.0, 300.0)
        free = max_secure_distance(get_preset("fig4-full"), 0.0, 300.0,
                                   require_classical_feasible=False)
        assert free.distance_km > gated.distance_km


_GRID_ED = [ED_BOUNDS[0] + i * ED_STEP for i in range(51)]
_GRID_F = [F_BOUNDS[0] + j * F_STEP for j in range(51)]


def _cell_objective(scenarios, targets, ed, f):
    """The calibration objective at one grid cell, one `key` call per
    target, as the per-cell grid search computed it."""
    total = 0.0
    for scenario, target in zip(scenarios, targets):
        channel, key, _ = _resolve(scenario)
        ch = channel(target.distance_km)
        qmu, emu, qnu, enu, y1, e1, r, rate, clamps = key(
            ch[_CH_ETA], ch[_CH_Y0], ed, f)
        if rate <= 0.0:
            return math.inf
        total += ((math.log(rate) - math.log(target.key_rate_bps)) ** 2
                  + ((emu - target.qber) / 0.005) ** 2)
    return total


def _full_scan_calibrate(scenarios, targets):
    """`calibrate` with its grid scanned in full: every cell of every row in
    row-major order, with no bound, then the same refinement and residuals."""
    points = _calibration_points(scenarios, targets)
    best = (math.inf, ED_BOUNDS[0], F_BOUNDS[0])
    for ed in _GRID_ED:
        row = _row_terms(points, ed)
        for f in _GRID_F:
            value = _cell(row, f)
            if value < best[0]:
                best = (value, ed, f)
    if not math.isfinite(best[0]):
        raise CalibrationError("objective non-finite over the whole grid")

    _, ed, f = best
    for _ in range(3):
        ed = _golden_min(lambda x: _cell(_row_terms(points, x), f),
                         max(ED_BOUNDS[0], ed - ED_STEP),
                         min(ED_BOUNDS[1], ed + ED_STEP))
        row = _row_terms(points, ed)
        f = _golden_min(lambda x: _cell(row, x),
                        max(F_BOUNDS[0], f - F_STEP),
                        min(F_BOUNDS[1], f + F_STEP))
    refined = _cell(row, f)
    if refined > best[0]:
        _, ed, f = best
        refined = best[0]

    residuals = []
    for scenario, target in zip(scenarios, targets):
        channel, key, _ = _resolve(scenario)
        ch = channel(target.distance_km)
        qmu, emu, qnu, enu, y1, e1, r, rate, clamps = key(
            ch[_CH_ETA], ch[_CH_Y0], ed, f)
        residuals.append(TargetResidual(scenario.name, target.distance_km,
                                        rate, target.key_rate_bps, emu,
                                        target.qber))
    return CalibrationReport(ed, f, tuple(residuals), refined)


def _faithful_floor(row, f):
    """The smallest `_cell(row, f)` a `math.log` one ulp off either way
    could give: a faithful log of a rate is one of the floats either side
    of its true value, which lie within an ulp of this platform's result."""
    if row is None:
        return math.inf
    total = 0.0
    for terms, q_sift, clock_hz, p_mu, log_rate, qber_term in row:
        rate = _rate_per_pulse(terms, f, q_sift) * clock_hz * p_mu
        if rate <= 0.0:
            return math.inf
        log = math.log(rate)
        total += min((x - log_rate) ** 2
                     for x in (math.nextafter(log, -math.inf), log,
                               math.nextafter(log, math.inf))) + qber_term
    return total


class _GridDone(Exception):
    """Raised at `calibrate`'s first golden-section step."""


def _grid_work(monkeypatch, scenarios, targets):
    """What `calibrate`'s grid phase does before its first golden-section
    step, or before it raises: the target terms (`_rate_per_pulse` calls),
    the rows (`_row_terms` calls), and the e_d bracket of that step, which
    is one grid step either side of the grid's best e_d (None if it
    raised)."""
    work = [0, 0, None]

    def counting(index, real):
        def call(*args):
            work[index] += 1
            return real(*args)
        return call

    def stop(fn, lo, hi):
        work[2] = (lo, hi)
        raise _GridDone

    monkeypatch.setattr(scenario_mod, "_rate_per_pulse",
                        counting(0, scenario_mod._rate_per_pulse))
    monkeypatch.setattr(scenario_mod, "_row_terms",
                        counting(1, scenario_mod._row_terms))
    monkeypatch.setattr(scenario_mod, "_golden_min", stop)
    with pytest.raises((_GridDone, CalibrationError)):
        calibrate(scenarios, targets)
    monkeypatch.undo()
    return tuple(work)


def _calibration_targets():
    """1-3 targets as (preset, mu, distance_km, key_rate_bps, qber); a mu
    of 3 makes the yield bound vanish at short distances."""
    return st.lists(st.tuples(st.sampled_from(preset_names()),
                              st.sampled_from([0.4, 0.6, 3.0]),
                              st.floats(0.0, 150.0),
                              st.floats(1.0, 1e7),
                              st.floats(0.0, 0.1)),
                    min_size=1, max_size=3)


def _fit_inputs(targets):
    """Scenarios and `CalibrationTarget`s from `_calibration_targets()`."""
    scenarios = [replace(get_preset(name), intensities=DecoyIntensities(mu=mu))
                 for name, mu, *_ in targets]
    return scenarios, [CalibrationTarget(*t) for _, _, *t in targets]


class TestCalibration:
    def test_round_trip_recovers_known_parameters(self):
        truth_ed, truth_f = 0.031, 1.23
        scenarios = [get_preset(name) for name, _ in REFERENCE_TARGETS]
        targets = []
        for scenario, (_, ref) in zip(scenarios, REFERENCE_TARGETS):
            row = evaluate_at(apply_calibration(scenario, truth_ed, truth_f),
                              ref.distance_km)
            targets.append(CalibrationTarget(ref.distance_km,
                                             row.key_rate_bps, row.e_mu))
        report = calibrate(scenarios, targets)
        assert report.misalignment_error == pytest.approx(truth_ed, abs=0.001)
        assert report.ec_efficiency == pytest.approx(truth_f, abs=0.01)
        assert report.objective < 1e-6

    def test_reference_targets_report(self):
        scenarios = [get_preset(name) for name, _ in REFERENCE_TARGETS]
        targets = [t for _, t in REFERENCE_TARGETS]
        report = calibrate(scenarios, targets)
        assert len(report.residuals) == 3
        assert math.isfinite(report.objective)
        for residual, (_, target) in zip(report.residuals, REFERENCE_TARGETS):
            assert residual.target_rate_bps == target.key_rate_bps
            assert residual.key_rate_bps >= 0.0

    def test_empty_targets(self):
        with pytest.raises(ConfigError):
            calibrate([], [])

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            calibrate([get_preset("smf")], [])

    def test_length_mismatch_with_targets(self):
        target = CalibrationTarget(63.0, 2300.0, 0.04)
        with pytest.raises(ConfigError,
                           match="^got 2 scenarios for 1 targets$"):
            calibrate([get_preset("smf")] * 2, [target])

    def test_unreachable_targets_fail(self):
        # at 300 km the smf key rate is zero for every (ed, f)
        with pytest.raises(CalibrationError):
            calibrate([get_preset("smf")],
                      [CalibrationTarget(300.0, 1000.0, 0.04)])

    def test_vanished_yield_bound_fails(self):
        # With mu = 3 the single-photon yield bound vanishes at 20 km for
        # every (ed, f), so every row of the grid is infinite.
        scenario = replace(get_preset("smf"),
                           intensities=DecoyIntensities(mu=3.0))
        assert evaluate_at(scenario, 20.0).y1_lower == 0.0
        for targets in ([scenario], [get_preset("smf"), scenario]):
            points = _calibration_points(
                targets, [CalibrationTarget(20.0, 1e5, 0.02)] * len(targets))
            row = _row_terms(points, 0.01)
            assert [_cell(row, f) for f in _GRID_F] == [math.inf] * 51
            with pytest.raises(CalibrationError):
                calibrate(targets,
                          [CalibrationTarget(20.0, 1e5, 0.02)] * len(targets))

    @settings(max_examples=60, deadline=None)
    @given(targets=_calibration_targets(),
           ed=st.one_of(st.sampled_from(_GRID_ED),
                        st.floats(*ED_BOUNDS)),
           fs=st.lists(st.one_of(st.sampled_from(_GRID_F),
                                 st.floats(*F_BOUNDS)),
                       min_size=1, max_size=8))
    # a vanished yield bound at the second target
    @example(targets=[("smf", 0.4, 63.0, 2300.0, 0.04),
                      ("lp01in", 3.0, 20.0, 1e5, 0.02)],
             ed=0.02, fs=_GRID_F)
    # near the cliff: rates clamped to 0 over part of the row
    @example(targets=[("lp01in", 0.4, 87.0, 50.0, 0.05)], ed=0.02,
             fs=_GRID_F)
    def test_row_objective_is_the_cell_objective(self, targets, ed, fs):
        scenarios, cal_targets = _fit_inputs(targets)
        expected = [_cell_objective(scenarios, cal_targets, ed, f).hex()
                    for f in fs]
        points = _calibration_points(scenarios, cal_targets)
        row = _row_terms(points, ed)
        assert [_cell(row, f).hex() for f in fs] == expected
        # one row per f, as the golden-section steps in e_d build it
        assert [_cell(_row_terms(points, ed), f).hex()
                for f in fs] == expected

    @settings(max_examples=60, deadline=None)
    @given(targets=_calibration_targets(),
           ed=st.floats(*ED_BOUNDS), f=st.floats(*F_BOUNDS))
    # a vanished yield bound at the second target
    @example(targets=[("smf", 0.4, 63.0, 2300.0, 0.04),
                      ("lp01in", 3.0, 20.0, 1e5, 0.02)], ed=0.02, f=1.2)
    # near the cliff: a zero rate at f = 1.5
    @example(targets=[("lp01in", 0.4, 87.0, 50.0, 0.05)], ed=0.03, f=1.5)
    def test_single_cell_is_the_cell_objective(self, targets, ed, f):
        # the path of the golden-section steps in e_d
        scenarios, cal_targets = _fit_inputs(targets)
        points = _calibration_points(scenarios, cal_targets)
        assert (_cell(_row_terms(points, ed), f).hex()
                == _cell_objective(scenarios, cal_targets, ed, f).hex())

    @pytest.mark.parametrize("names", [
        [name for name, _ in REFERENCE_TARGETS], ["smf"], ["lp02in"] * 4])
    def test_target_constants_computed_once(self, names, monkeypatch):
        # What depends on a target's (eta, Y0) alone is computed once per
        # calibration, not once per row or refinement step.
        calls = []
        real_steps = scenario_mod._decoy_steps

        def counting_steps(mu, nu):
            prefix, emu_at, rest = real_steps(mu, nu)

            def counted(eta, y0):
                calls.append((eta, y0))
                return prefix(eta, y0)
            return counted, emu_at, rest

        monkeypatch.setattr(scenario_mod, "_decoy_steps", counting_steps)
        scenarios = [get_preset(name) for name in names]
        targets = [CalibrationTarget(60.0 + i, 1e4, 0.03)
                   for i in range(len(names))]
        calibrate(scenarios, targets)
        assert len(calls) == len(targets)

    @settings(max_examples=40, deadline=None)
    @given(targets=_calibration_targets(),
           ed=st.one_of(st.sampled_from(_GRID_ED), st.floats(*ED_BOUNDS)),
           cell=st.integers(0, 50),
           bound=st.one_of(st.none(), st.floats(min_value=0.0)))
    # a vanished yield bound at the second target: every cell is inf
    @example(targets=[("smf", 0.4, 63.0, 2300.0, 0.04),
                      ("lp01in", 3.0, 20.0, 1e5, 0.02)],
             ed=0.02, cell=0, bound=None)
    # near the cliff, bounded by a cell's own value
    @example(targets=[("lp01in", 0.4, 87.0, 50.0, 0.05)], ed=0.02,
             cell=50, bound=None)
    def test_bounded_row_keeps_every_cell_below_the_bound(self, targets, ed,
                                                          cell, bound):
        """With a bound B, a cell below B keeps its bits and any other
        comes back >= B; the row's lower bound is <= every cell."""
        scenarios, cal_targets = _fit_inputs(targets)
        points = _calibration_points(scenarios, cal_targets)
        row = _row_terms(points, ed)
        exact = [_cell(row, f) for f in _GRID_F]
        if bound is None:   # a bound the row reaches exactly
            bound = exact[cell]
        for value, f in zip(exact, _GRID_F):
            bounded = _cell(row, f, bound)
            if value < bound:
                assert bounded.hex() == value.hex()
            else:
                assert bounded >= bound
        assert all(_lower_bound(points, ed) <= value for value in exact)

    @settings(max_examples=60, deadline=None)
    @given(targets=_calibration_targets(),
           ed=st.one_of(st.sampled_from(_GRID_ED), st.floats(*ED_BOUNDS)),
           block=st.lists(st.integers(0, 50), min_size=2,
                          max_size=2).map(sorted))
    # a vanished yield bound at the second target: the row is None
    @example(targets=[("smf", 0.4, 63.0, 2300.0, 0.04),
                      ("lp01in", 3.0, 20.0, 1e5, 0.02)],
             ed=0.02, block=[0, 50])
    # near the cliff: the rates clamp to 0 inside the block
    @example(targets=[("lp01in", 0.4, 87.0, 50.0, 0.05)], ed=0.02,
             block=[10, 50])
    # extreme target rates: every rate far above or far below its target
    @example(targets=[("smf", 0.4, 63.0, 5e-324, 0.04),
                      ("lp02in", 0.4, 86.0, 1.7e308, 0.03)],
             ed=0.03, block=[0, 50])
    def test_block_bound_is_below_every_cell_of_its_block(self, targets, ed,
                                                          block):
        """The bound over f in [fs[j0], fs[j1]] is <= each of the block's
        cells, also with every log one ulp off in the worse direction."""
        scenarios, cal_targets = _fit_inputs(targets)
        row = _row_terms(_calibration_points(scenarios, cal_targets), ed)
        j0, j1 = block
        bound = _block_bound(row, _GRID_F[j0], _GRID_F[j1])
        for f in _GRID_F[j0:j1 + 1]:
            assert bound <= _cell(row, f)
            assert bound <= _faithful_floor(row, f)

    @settings(max_examples=40, deadline=None)
    @given(targets=_calibration_targets())
    # one target twice: every cell's terms come in equal pairs
    @example(targets=[("smf", 0.4, 63.0, 2300.0, 0.04)] * 2)
    # mu = 3 at 20 km: the yield bound vanishes, every row is infinite
    @example(targets=[("smf", 3.0, 20.0, 1e5, 0.02)])
    # the yield bound vanishes for the second target only
    @example(targets=[("smf", 0.4, 63.0, 2300.0, 0.04),
                      ("lp01in", 3.0, 20.0, 1e5, 0.02)])
    # a single target at the cliff: zero rates over part of the grid
    @example(targets=[("lp01in", 0.4, 87.0, 50.0, 0.05)])
    def test_pruned_grid_gives_the_full_scan_report(self, targets):
        scenarios, cal_targets = _fit_inputs(targets)
        try:
            expected = repr(_full_scan_calibrate(scenarios, cal_targets))
        except CalibrationError:
            with pytest.raises(CalibrationError):
                calibrate(scenarios, cal_targets)
            return
        assert repr(calibrate(scenarios, cal_targets)) == expected

    @staticmethod
    def _tied_row_inputs():
        """With no dark counts, Y0 is 0 at 0 km, so on the e_d = 0 row the
        QBER and its entropy are 0 and all 51 cells are equal. A target at
        the rate of that row makes them the grid's minimum, 0.0, and the
        first of them, f = 1.0, is the fit."""
        smf = get_preset("smf")
        scenario = replace(smf, detector=replace(smf.detector,
                                                 dark_count_per_gate=0.0))
        rate = evaluate_at(apply_calibration(scenario, 0.0, 1.0),
                           0.0).key_rate_bps
        targets = [CalibrationTarget(0.0, rate, 0.0)]
        row = _row_terms(_calibration_points([scenario], targets), 0.0)
        assert [_cell(row, f) for f in _GRID_F] == [0.0] * 51
        return [scenario], targets

    def test_ties_go_to_the_first_cell(self):
        scenarios, targets = self._tied_row_inputs()
        report = calibrate(scenarios, targets)
        assert (report.misalignment_error, report.ec_efficiency,
                report.objective) == (0.0, 1.0, 0.0)
        assert repr(report) == repr(_full_scan_calibrate(scenarios, targets))

    def test_ties_go_to_the_first_cell_whatever_the_block_order(
            self, monkeypatch):
        # A block bound of -f_hi is <= every cell of the tied row and makes
        # the blocks of high f come up first, so the first cell the search
        # evaluates is not the first cell of the row.
        scenarios, targets = self._tied_row_inputs()
        expected = repr(_full_scan_calibrate(scenarios, targets))
        monkeypatch.setattr(scenario_mod, "_block_bound",
                            lambda row, lo, hi: -hi)
        report = calibrate(scenarios, targets)
        assert (report.misalignment_error, report.ec_efficiency,
                report.objective) == (0.0, 1.0, 0.0)
        assert repr(report) == expected

    def test_ties_across_rows_go_to_the_first_row(self, monkeypatch):
        # Every row made the same, so its minimum is in all of them, and
        # visited from the last: a lower bound of low - e_d orders the rows
        # backwards, and the first row's bound is the minimum itself, which
        # a cut at the best instead of just above it would drop.
        scenarios = [get_preset(name) for name, _ in REFERENCE_TARGETS]
        targets = [t for _, t in REFERENCE_TARGETS]
        row = _row_terms(_calibration_points(scenarios, targets), 0.03)
        low = min(_cell(row, f) for f in _GRID_F)
        monkeypatch.setattr(scenario_mod, "_row_terms", lambda points, ed: row)
        monkeypatch.setattr(scenario_mod, "_lower_bound",
                            lambda points, ed: low - ed)
        _, rows, bracket = _grid_work(monkeypatch, scenarios, targets)
        assert (rows, bracket) == (51, (ED_BOUNDS[0], ED_STEP))

    def test_grid_work_on_the_reference_targets(self, monkeypatch):
        # Rows and f-blocks best first under one cut: 189 target terms,
        # block bounds included, in 22 rows.
        terms, rows, _ = _grid_work(
            monkeypatch, [get_preset(name) for name, _ in REFERENCE_TARGETS],
            [t for _, t in REFERENCE_TARGETS])
        assert terms <= 189
        assert rows <= 22

    def test_grid_work_on_synthetic_targets(self, monkeypatch):
        # The benchmark's synthetic target sets: at most 66 target terms
        # each, where a first row evaluated in full is 153 on its own.
        rng = random.Random(0)
        for _ in range(60):
            case = inputs._synthetic_calibration(rng)
            terms, _, _ = _grid_work(
                monkeypatch, [get_preset(name) for name in case["presets"]],
                [CalibrationTarget(*t) for t in case["targets"]])
            assert terms <= 66

    def test_vanished_yield_bound_visits_no_row(self, monkeypatch):
        # Every row's lower bound is inf, which reaches the first cut.
        scenario = replace(get_preset("smf"),
                           intensities=DecoyIntensities(mu=3.0))
        assert _grid_work(monkeypatch, [scenario],
                          [CalibrationTarget(20.0, 1e5, 0.02)]) == (0, 0, None)

    @settings(max_examples=40, deadline=None)
    @given(targets=st.lists(
        st.tuples(st.sampled_from(preset_names()),
                  st.sampled_from([0.0, 5e-324, 1e300, 1.7e308]),
                  st.floats(5e-324, 1.7e308),
                  st.sampled_from([0.0, 1.0])),
        min_size=1, max_size=3))
    def test_extreme_targets_fit_or_raise_a_package_error(self, targets):
        try:
            report = calibrate([get_preset(name) for name, *_ in targets],
                               [CalibrationTarget(*t) for _, *t in targets])
        except QkdCoexError:
            return
        assert math.isfinite(report.misalignment_error)
        assert math.isfinite(report.ec_efficiency)
        assert math.isfinite(report.objective)

    def test_apply_calibration(self):
        s = apply_calibration(get_preset("smf"), 0.02, 1.3)
        assert s.protocol.misalignment_error == 0.02
        assert s.protocol.ec_efficiency == 1.3
        assert s.link == get_preset("smf").link


SCENARIO_INI = """
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

[classical]
launch_power_dbm = -2.60
adaptive_power = false
receiver_sensitivity_dbm = -33.0

[raman]
coefficient_cps_per_mw_km = 2655

[sweep]
from_km = 0
to_km = 20
step_km = 10
"""


class TestConfigLoading:
    def test_full_scenario(self, tmp_path):
        path = tmp_path / "lp02in-custom.ini"
        path.write_text(SCENARIO_INI, encoding="utf-8")
        scenario = load_scenario(path)
        assert scenario.name == "lp02in-custom"
        assert scenario.link.scheme.name is SchemeName.LP02_IN
        assert scenario.raman.rho_cps_per_mw_km == 2655.0
        assert scenario.raman_alpha_basis is Band.QUANTUM
        # matches the built-in preset up to the name
        preset = get_preset("lp02in")
        assert evaluate_at(scenario, 86.0) == evaluate_at(preset, 86.0)
        sweep = load_sweep(path)
        assert sweep == SweepSpec(0.0, 20.0, 10.0)

    def test_file_read_once_for_scenario_and_sweep(self, tmp_path,
                                                    monkeypatch):
        path = tmp_path / "lp02in-custom.ini"
        path.write_text(SCENARIO_INI, encoding="utf-8")
        reads = []
        read_ini = config._read_ini
        monkeypatch.setattr(config, "_read_ini",
                            lambda p: reads.append(p) or read_ini(p))
        scenario, sweep = config._load_scenario_file(path)
        assert reads == [path]
        assert scenario == load_scenario(path)
        assert sweep == load_sweep(path) == SweepSpec(0.0, 20.0, 10.0)

    def test_negative_attenuation_rejected(self, tmp_path):
        bad = SCENARIO_INI.replace("0.226", "-0.226")
        path = tmp_path / "bad.ini"
        path.write_text(bad, encoding="utf-8")
        with pytest.raises(ConfigError, match="(0, 1)"):
            load_scenario(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "typo.ini"
        path.write_text(SCENARIO_INI + "\n[detector]\nefficency = 0.1\n",
                        encoding="utf-8")
        with pytest.raises(ConfigError, match="efficency"):
            load_scenario(path)

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "missing.ini"
        path.write_text(SCENARIO_INI.replace(
            "coefficient_cps_per_mw_km = 2655", ""), encoding="utf-8")
        with pytest.raises(ConfigError, match="coefficient_cps_per_mw_km"):
            load_scenario(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "extra.ini"
        path.write_text(SCENARIO_INI + "\n[amplifier]\ngain_db = 20\n",
                        encoding="utf-8")
        with pytest.raises(ConfigError, match="amplifier"):
            load_scenario(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_scenario(tmp_path / "nope.ini")

    def test_noise_divisor_switch(self, tmp_path):
        path = tmp_path / "gate.ini"
        path.write_text(SCENARIO_INI.replace(
            "coefficient_cps_per_mw_km = 2655",
            "coefficient_cps_per_mw_km = 2655\nnoise_divisor = gate"),
            encoding="utf-8")
        scenario = load_scenario(path)
        assert scenario.noise_divisor == "gate"
        # gate divisor halves the per-pulse noise probability (2 gates/pulse)
        clock_row = evaluate_at(load_scenario_with(tmp_path, SCENARIO_INI),
                                50.0)
        gate_row = evaluate_at(scenario, 50.0)
        dark = 2.4e-6
        assert gate_row.y0 - dark == pytest.approx(
            (clock_row.y0 - dark) / 2.0, rel=1e-9)


def load_scenario_with(tmp_path, text):
    path = tmp_path / "base.ini"
    path.write_text(text, encoding="utf-8")
    return load_scenario(path)


# ---------------------------------------------------------------------------
# the bound channel and the clipped cliff search

def _load_ini(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "drawn.ini"
        path.write_text(text, encoding="utf-8")
        return load_scenario(path)


# The presets, and physical INI scenarios with the parameter ranges of the
# benchmark's generated files, fixed and adaptive power alike.
_SCENARIOS = st.one_of(
    st.sampled_from(preset_names()).map(get_preset),
    st.builds(inputs._ini_scenario, st.randoms(use_true_random=False),
              st.sampled_from(("smf", "lp01in", "lp02in")), st.booleans(),
              st.sampled_from(("quantum", "classical")),
              st.sampled_from(("clock", "gate")),
              extra_il=st.booleans()).map(lambda ini: _load_ini(ini[0])))


def _bits(*values):
    return [v.hex() if isinstance(v, float) else v for v in values]


def _typed(*values):
    return [(type(v), v.hex() if isinstance(v, float) else v) for v in values]


@pytest.mark.parametrize("name, d", [
    *((name, d) for name in preset_names() for d in (0.0, 86.0, 300.0)),
    *((name, target.distance_km) for name, target in REFERENCE_TARGETS)])
def test_position_names_read_their_record_fields(name, d):
    """Each position name picks, from the per-point tuple it indexes, the
    value of the same-named field of the record the public function builds
    for that point: `channel_state`, `key_rate_details` or `evaluate_at`."""
    names = {n for module in (scenario_mod, decoy_mod) for n in vars(module)
             if n.startswith(("_CH_", "_KEY_", "_PREFIX_", "_REST_"))}
    assert names == {"_CH_SRS", "_CH_Y0", "_CH_ETA", "_CH_FEASIBLE",
                     "_KEY_RATE", "_PREFIX_Q_MU", "_PREFIX_Q_NU",
                     "_PREFIX_Y1", "_REST_TERMS"}
    scenario = get_preset(name)
    intensities, protocol = scenario.intensities, scenario.protocol
    state = channel_state(scenario, d)
    details = key_rate_details(state.channel_point(), intensities, protocol)
    channel, key, _ = _resolve(scenario)
    ch = channel(d)
    assert (_typed(ch[_CH_SRS], ch[_CH_Y0], ch[_CH_ETA], ch[_CH_FEASIBLE])
            == _typed(state.srs_rate_cps, state.y0, state.eta,
                      state.classical_feasible))
    assert _typed(key(state.eta, state.y0)[_KEY_RATE]) == _typed(
        details.rate_bps)
    prefix, emu_at, rest = _decoy_steps(intensities.mu, intensities.nu)
    p = prefix(state.eta, state.y0)
    assert (_typed(p[_PREFIX_Q_MU], p[_PREFIX_Q_NU], p[_PREFIX_Y1])
            == _typed(details.q_mu, details.q_nu, details.y1_lower))
    ed = protocol.misalignment_error
    terms = rest(p, ed, emu_at(p, ed))[_REST_TERMS]
    assert (terms is None) is (details.y1_lower <= 0.0)
    if terms is not None:
        assert _typed(_rate_per_pulse(terms, protocol.ec_efficiency,
                                      protocol.sifting_factor)) == _typed(
            details.rate_per_pulse)
    # `_point` gives the `ResultRow` fields: each equals evaluate_at's and
    # the same-named field of the channel state or the key-rate breakdown.
    point, row = _point(channel, key, d), evaluate_at(scenario, d)
    for value, field in zip(point, RESULT_FIELDS, strict=True):
        source = getattr(state, field, None)
        if source is None:
            source = getattr(details, field.replace("key_rate", "rate"))
        assert _typed(value) == _typed(getattr(row, field)) == _typed(
            source), field


@settings(deadline=None)
@given(scenario=_SCENARIOS,
       d=st.one_of(st.floats(0.0, 400.0), st.sampled_from((0.0, 1e300))))
def test_channel_matches_public_helpers(scenario, d):
    """`channel(d)` binds its constants once; every field carries the bits
    of the public functions that state each step."""
    channel, _, _ = _resolve(scenario)
    q_loss, c_loss, needed, launch, srs, y0, eta, feasible = channel(d)
    link = replace(scenario.link, length_km=d)
    assert _bits(q_loss, c_loss) == _bits(total_loss_db(link, Band.QUANTUM),
                                          total_loss_db(link, Band.CLASSICAL))
    cap = scenario.classical_launch_power_dbm
    assert _bits(needed) == _bits(c_loss + scenario.receiver_sensitivity_dbm)
    assert _bits(launch) == _bits(min(needed, cap) if scenario.adaptive_power
                                  else cap)
    alpha_r, _ = _path(scenario.link, scenario.raman_alpha_basis)
    assert _bits(srs) == _bits(srs_noise_rate_cps(
        dbm_to_mw(launch), scenario.raman, d, alpha_r))
    detector = scenario.detector
    divisor = detector.gate_hz if scenario.noise_divisor == "gate" else None
    assert _bits(y0) == _bits(min(
        background_yield(detector, scenario.protocol, srs, divisor),
        math.nextafter(1.0, 0.0)))
    assert _bits(eta) == _bits(transmittance(q_loss) * detector.efficiency)
    assert feasible is (launch + 1e-9 >= needed)


def _unclipped_search(scenario, from_km, to_km, coarse_step_km,
                      require_classical_feasible, resolution_km=0.01):
    """`max_secure_distance` without the clip: every coarse grid point is
    evaluated from the top down, those above the classical cliff included,
    until the first positive rate; the bisection then refines above it."""
    channel, key, _ = _resolve(scenario)

    def rate(d):
        ch = channel(d)
        if require_classical_feasible and not ch[_CH_FEASIBLE]:
            return 0.0
        return key(ch[_CH_ETA], ch[_CH_Y0])[_KEY_RATE]

    grid = [from_km]
    while grid[-1] < to_km:
        grid.append(min(grid[-1] + coarse_step_km, to_km))
    last = next((i for i in reversed(range(len(grid)))
                 if rate(grid[i]) > 0.0), None)
    if last is None:
        raise NoSecureDistanceError("no positive rate")
    if last == len(grid) - 1:
        return DistanceResult(grid[last], at_upper_boundary=True)
    lo, hi = grid[last], grid[last + 1]
    while hi - lo > resolution_km:
        mid = 0.5 * (lo + hi)
        if rate(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return DistanceResult(lo, at_upper_boundary=False)


def _search_outcome(search, *args):
    try:
        return search(*args)
    except QkdCoexError as exc:
        return type(exc)


def _classical_cliff_km(scenario):
    """Where the classical link stops closing at the cap power."""
    alpha_c, il_c = _path(scenario.link, Band.CLASSICAL)
    budget = (scenario.classical_launch_power_dbm
              - scenario.receiver_sensitivity_dbm - sum(il_c))
    return max(0.0, budget / alpha_c)


class TestClippedSearch:
    @settings(deadline=None)
    @given(scenario=_SCENARIOS, data=st.data())
    def test_matches_unclipped_search(self, scenario, data):
        cliff = _classical_cliff_km(scenario)
        where = data.draw(st.sampled_from(("below", "inside", "above")))
        if where == "below":      # the cliff lies below from_km
            from_km = cliff + data.draw(st.floats(0.5, 150.0))
            to_km = from_km + data.draw(st.floats(0.0, 300.0))
        elif where == "inside":
            from_km = data.draw(st.floats(0.0, max(0.0, cliff - 0.5)))
            to_km = cliff + data.draw(st.floats(0.5, 300.0))
        else:                     # the cliff lies above to_km
            to_km = data.draw(st.floats(0.0, max(0.0, cliff - 0.5)))
            from_km = data.draw(st.floats(0.0, to_km))
        step = data.draw(st.floats(0.5, 40.0))
        budget = data.draw(st.booleans())
        clipped = _search_outcome(
            lambda: max_secure_distance(scenario, from_km, to_km,
                                        require_classical_feasible=budget,
                                        coarse_step_km=step))
        assert clipped == _search_outcome(
            _unclipped_search, scenario, from_km, to_km, step, budget)

    # A launch power whose milliwatts overflow, above the classical cliff:
    # the feasibility probes convert the cap, so the search still raises.
    @pytest.mark.parametrize("scenario, from_km, to_km, step", [
        # the cap's milliwatts overflow; adaptive and fixed power
        (replace(get_preset("fig4-power"), classical_launch_power_dbm=4000.0),
         20000.0, 20300.0, 1.0),
        (replace(get_preset("lp02in"), classical_launch_power_dbm=4000.0),
         20000.0, 20300.0, 1.0),
    ])
    def test_raising_channel_above_cliff_still_raises(self, scenario, from_km,
                                                      to_km, step):
        assert _classical_cliff_km(scenario) < from_km
        with pytest.raises(DomainError):
            max_secure_distance(scenario, from_km, to_km, coarse_step_km=step)
        with pytest.raises(DomainError):
            _unclipped_search(scenario, from_km, to_km, step, True)

    def test_points_above_the_cliff_are_not_evaluated(self):
        # The SRS rate, 1e10 * L cps, overflows at the top grid point only,
        # which lies above the classical cliff: the budget-on search never
        # evaluates it, while the full scan and the rate-only search do.
        smf = get_preset("smf")
        scenario = replace(
            smf, link=replace(smf.link, fiber=FiberSpec.smf(1e-310, 0.2)),
            raman=replace(smf.raman, rho_cps_per_mw_km=1e10),
            classical_launch_power_dbm=0.0)
        args = (scenario, 1e298, 1.8e298)
        assert _classical_cliff_km(scenario) < args[1]
        with pytest.raises(NoSecureDistanceError, match="non-positive"):
            max_secure_distance(*args, coarse_step_km=1e296)
        with pytest.raises(DomainError, match="Raman rate overflows"):
            _unclipped_search(*args, 1e296, True)
        with pytest.raises(DomainError, match="Raman rate overflows"):
            max_secure_distance(*args, require_classical_feasible=False,
                                coarse_step_km=1e296)

    def test_budget_search_skips_points_above_the_cliff(self, monkeypatch):
        channel_at, key_at = [], []
        resolve = scenario_mod._resolve

        def counted(scenario):
            channel, key, certificate = resolve(scenario)

            def counted_channel(d):
                channel_at.append(d)
                return channel(d)

            def counted_key(*args):
                key_at.append(channel_at[-1])
                return key(*args)

            def counted_certificate(*args):
                zero_on = certificate(*args)

                def counted_zero_on(a, b):
                    channel_at.append(a)    # the certificate's channel(a)
                    return zero_on(a, b)
                return counted_zero_on
            return counted_channel, counted_key, counted_certificate

        monkeypatch.setattr(scenario_mod, "_resolve", counted)
        result = max_secure_distance(get_preset("lp02in"), 0.0, 300.0)
        assert f"{result.distance_km:.2f}" == "91.44"
        assert key_at and max(key_at) <= 91.44
        # 217 without the clip: every coarse point from 300 km down
        assert len(channel_at) < 30


def _plain_search(scenario, from_km, to_km, budget):
    """`max_secure_distance` without its certificate: `find_rate_cliff`'s
    plain top-down scan of the rate, which is 0 where the classical link
    cannot close."""
    channel, key, _ = _resolve(scenario)

    def rate(d):
        ch = channel(d)
        return (0.0 if budget and not ch[_CH_FEASIBLE]
                else key(ch[_CH_ETA], ch[_CH_Y0])[_KEY_RATE])
    return find_rate_cliff(rate, from_km, to_km)


def _exact_outcome(search, *args):
    """The result's bits, or the exception's type and message."""
    try:
        result = search(*args)
    except QkdCoexError as exc:
        return type(exc), str(exc)
    return result.distance_km.hex(), result.at_upper_boundary


def _certified(scenario, from_km, to_km, budget):
    return max_secure_distance(scenario, from_km, to_km,
                               require_classical_feasible=budget)


_SMF = get_preset("smf")


def _seeded_ini_scenarios(count, seed):
    """`count` INI scenarios of the benchmark's generator, each with a
    search range like the benchmark's (a start in [0, 40] km, 300 km long)."""
    rng = random.Random(seed)
    for _ in range(count):
        text, _ = inputs._ini_scenario(
            rng, rng.choice(("smf", "lp01in", "lp02in")), rng.random() < 0.5,
            rng.choice(("quantum", "classical")), rng.choice(("clock", "gate")),
            rng.random() < 0.5)
        from_km = round(rng.uniform(0.0, 40.0), 2)
        yield _load_ini(text), from_km, from_km + 300.0


class TestCertifiedSearch:
    """The cliff search skips blocks its certificate proves to have rate 0;
    its outcome must be that of the plain scan, bit for bit."""

    @pytest.mark.parametrize("budget", [True, False])
    @pytest.mark.parametrize("name", preset_names())
    def test_presets_match_plain_scan(self, name, budget):
        scenario = get_preset(name)
        for from_km, to_km in [(0.0, 300.0), *MAX_DISTANCE_RANGES]:
            args = (scenario, float(from_km), float(to_km), budget)
            assert (_exact_outcome(_certified, *args)
                    == _exact_outcome(_plain_search, *args)), args

    def test_ini_scenarios_match_plain_scan(self):
        searches = 0
        for scenario, from_km, to_km in _seeded_ini_scenarios(320, 22):
            for budget in (True, False):
                for lo, hi in ((0.0, 300.0), (from_km, to_km)):
                    args = (scenario, lo, hi, budget)
                    assert (_exact_outcome(_certified, *args)
                            == _exact_outcome(_plain_search, *args)), args
                    searches += 1
        assert searches == 1280

    @settings(deadline=None)
    @given(scenario=_SCENARIOS, data=st.data())
    def test_link_test_is_channel_feasibility(self, scenario, data):
        # The budget-on certificate tests the classical link without the
        # rest of the channel; at a single point it must agree with it.
        cliff = _classical_cliff_km(scenario)
        d = data.draw(st.one_of(
            st.floats(0.0, 400.0),
            st.floats(-1e-6, 1e-6).map(lambda x: max(0.0, cliff + x))))
        channel, _, certificate = _resolve(scenario)
        assert ((certificate(400.0, True)(d, d) is True)
                is (not channel(d)[_CH_FEASIBLE]))

    # Two links whose rate is 0 near the start of the range, positive
    # further on and 0 again past the cliff. A certificate that took the
    # EC term at eta(a), or the Y0 at SRS(a), would skip the positive points.
    @pytest.mark.parametrize("link, expected", [
        # eta near 1 with a lossless link: Y1L clamps at 1, so the rate is 0
        # at eta(0) = 1 but positive at eta 0.95
        (dict(link=replace(_SMF.link, fiber=FiberSpec.smf(0.00235, 0.00235),
                           quantum_path_components=(),
                           classical_path_components=()),
              raman=replace(_SMF.raman, rho_cps_per_mw_km=1e-30),
              detector=replace(_SMF.detector, efficiency=1.0,
                               dark_count_per_gate=0.0108),
              protocol=replace(_SMF.protocol, misalignment_error=0.0,
                               ec_efficiency=1.0),
              intensities=DecoyIntensities(mu=0.45417187347698196,
                                           nu=0.3066791656431764)),
         "124.09"),
        # Raman noise that decays at 0.5 dB/km: past its peak near 8.7 km,
        # SRS(d) falls below SRS(a)
        (dict(link=replace(_SMF.link, fiber=FiberSpec.smf(0.2, 0.5)),
              raman=replace(_SMF.raman, rho_cps_per_mw_km=52480746.02497728),
              raman_alpha_basis=Band.CLASSICAL),
         "149.91"),
    ])
    def test_rate_positive_inside_a_block_with_zero_ends(self, link,
                                                          expected):
        scenario = replace(_SMF, **link)
        result = max_secure_distance(scenario, require_classical_feasible=False)
        assert f"{result.distance_km:.2f}" == expected
        for budget in (True, False):
            args = (scenario, 0.0, 300.0, budget)
            assert (_exact_outcome(_certified, *args)
                    == _exact_outcome(_plain_search, *args))

    # The plain scan evaluates the rate at every coarse point above the
    # cliff: 96-220 of them per preset over [0, 300] km with the budget off.
    # With the budget on it evaluates the channel at every point above the
    # classical cliff.
    @pytest.mark.parametrize("budget", [True, False])
    @pytest.mark.parametrize("name", preset_names())
    def test_work_is_bounded(self, name, budget, monkeypatch):
        rate_calls, certificate_calls = [], []
        search = scenario_mod.find_rate_cliff

        def counting(rate_fn, *args):
            *args, zero_on = args
            assert zero_on is not None

            def rate(d):
                rate_calls.append(d)
                return rate_fn(d)

            def certified(a, b):
                certificate_calls.append((a, b))
                return zero_on(a, b)
            return search(rate, *args, certified)

        monkeypatch.setattr(scenario_mod, "find_rate_cliff", counting)
        result = max_secure_distance(get_preset(name), 0.0, 300.0,
                                     require_classical_feasible=budget)
        assert f"{result.distance_km:.2f}" == FIG4_CLIFFS[name][not budget]
        if budget:
            # 13-16 tests of the classical link, about 2 per level of the
            # 301-point grid, and no rate evaluated past the classical cliff
            assert len(certificate_calls) <= 20
            assert max(rate_calls) <= _classical_cliff_km(get_preset(name)) + 1
        else:
            # 10-13 rate evaluations (7 of them the bisection) and 23-37
            # tests, single points included
            assert len(rate_calls) <= 16
            assert len(certificate_calls) <= 45


def test_calibration_report_stores_its_residuals_as_a_tuple():
    residual = TargetResidual("smf", 63.0, 2400.0, 2300.0, 0.039, 0.040)
    residuals = [residual]
    report = CalibrationReport(0.03, 1.2, residuals, 1.5)
    assert report.residuals == (residual,)
    assert hash(report) == hash(CalibrationReport(0.03, 1.2, (residual,), 1.5))
    residuals.clear()
    assert report.residuals == (residual,)
    assert CalibrationReport(0.03, 1.2, iter(residuals + [residual]),
                             1.5).residuals == (residual,)
