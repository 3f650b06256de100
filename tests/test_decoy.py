import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

import oracles
from qkdcoex import get_preset, scenario
from qkdcoex.decoy import (ChannelPoint, DecoyIntensities, DetectorSpec,
                           DistanceResult, ProtocolParams, _kernel,
                           background_yield, binary_entropy, dbm_to_mw, e1_upper_bound,
                           find_rate_cliff, gain_and_qber, key_rate_details,
                           max_secure_distance_km, secure_key_rate_bps,
                           y1_lower_bound)
from qkdcoex.errors import (ConfigError, DomainError, NoSecureDistanceError,
                            UndefinedBoundError)
from qkdcoex.scenario import max_secure_distance

INT = DecoyIntensities()          # 0.4 / 0.2 / 0 at 6:1:1
PARAMS = ProtocolParams()         # 625 MHz, ed 0.033, f 1.16, q 0.5


def params(ed=0.033, f=1.16):
    return ProtocolParams(misalignment_error=ed, ec_efficiency=f)


class TestBinaryEntropy:
    def test_maximum(self):
        assert binary_entropy(0.5) == 1.0

    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_derived_point(self):
        assert binary_entropy(0.11) == pytest.approx(0.499915958164528,
                                                     abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            binary_entropy(-0.01)
        with pytest.raises(DomainError):
            binary_entropy(1.01)

    @given(x=st.floats(0.0, 1.0))
    def test_symmetry(self, x):
        assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x),
                                                  abs=1e-12)

    @given(x=st.floats(0.0, 0.49), delta=st.floats(1e-6, 0.5))
    def test_increasing_below_half(self, x, delta):
        # gap large enough that the entropy difference is representable
        hi = min(0.5, x + delta)
        assert binary_entropy(hi) > binary_entropy(x)


class TestTypes:
    def test_intensity_ordering(self):
        with pytest.raises(ConfigError):
            DecoyIntensities(mu=0.2, nu=0.2)
        with pytest.raises(ConfigError):
            DecoyIntensities(mu=0.4, nu=0.0, omega=0.0)

    def test_probabilities_sum(self):
        with pytest.raises(ConfigError):
            DecoyIntensities(p_mu=0.5, p_nu=0.25, p_omega=0.2)

    def test_vacuum_must_be_zero(self):
        with pytest.raises(ConfigError):
            DecoyIntensities(mu=0.4, nu=0.2, omega=0.05)

    def test_detector_ranges(self):
        with pytest.raises(ConfigError):
            DetectorSpec(efficiency=0.0)
        with pytest.raises(ConfigError):
            DetectorSpec(dark_count_per_gate=1.0)

    @pytest.mark.parametrize("count", [2.5, 4.0, True, "4", None])
    def test_detector_count_must_be_an_int(self, count):
        # Y0's dark-count term multiplies by the count: 2.5 would scale it
        # and True would count as one detector.
        with pytest.raises(ConfigError, match="num_detectors must be an int"):
            DetectorSpec(num_detectors=count)

    def test_protocol_ranges(self):
        with pytest.raises(ConfigError):
            ProtocolParams(background_error=0.4)
        with pytest.raises(ConfigError):
            ProtocolParams(misalignment_error=0.5)
        with pytest.raises(ConfigError):
            ProtocolParams(ec_efficiency=0.99)

    def test_channel_point_ranges(self):
        with pytest.raises(ConfigError):
            ChannelPoint(eta=1.2, y0=0.0)
        with pytest.raises(ConfigError):
            ChannelPoint(eta=0.5, y0=1.0)


class TestGainAndQber:
    def test_dark_channel(self):
        ch = ChannelPoint(eta=0.0, y0=1e-4)
        q, e = gain_and_qber(0.4, ch, PARAMS)
        assert q == pytest.approx(1e-4, rel=1e-12)
        assert e == 0.5

    def test_dead_channel_reports_background_error(self):
        q, e = gain_and_qber(0.4, ChannelPoint(0.0, 0.0), PARAMS)
        assert q == 0.0
        assert e == 0.5

    def test_noiseless_error_free(self):
        q, e = gain_and_qber(0.4, ChannelPoint(0.3, 0.0), params(ed=0.0))
        assert e == 0.0
        assert q == pytest.approx(1 - math.exp(-0.12), rel=1e-12)

    def test_derived_gain(self):
        q, _ = gain_and_qber(0.4, ChannelPoint(0.1, 0.0), PARAMS)
        assert q == pytest.approx(0.03921056084767682, rel=1e-12)

    def test_matches_poisson_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            eta = 10 ** rng.uniform(-5, 0)
            y0 = rng.uniform(0.0, 1e-2)
            ed = rng.uniform(0.0, 0.1)
            ch = ChannelPoint(eta, y0)
            p = params(ed=ed)
            for intensity in (INT.mu, INT.nu, 0.0):
                q, e = gain_and_qber(intensity, ch, p)
                q_ref, e_ref = oracles.gain_qber(intensity, eta, y0, 0.5, ed)
                assert q == pytest.approx(q_ref, rel=1e-10, abs=1e-14)
                assert e == pytest.approx(e_ref, rel=1e-10, abs=1e-14)


class TestDecoyBounds:
    def test_frozen_perfect_channel_point(self):
        # eta 0.1, Y0 0: frozen from the closed-form expression and checked
        # against the true single-photon yield eta = 0.1
        qmu, _ = gain_and_qber(INT.mu, ChannelPoint(0.1, 0.0), PARAMS)
        qnu, _ = gain_and_qber(INT.nu, ChannelPoint(0.1, 0.0), PARAMS)
        y1 = y1_lower_bound(qmu, qnu, INT, 0.0)
        assert y1 == pytest.approx(0.09561574268127199, rel=1e-12)
        assert y1 <= oracles.true_y1(0.1, 0.0)

    def test_dead_channel_is_zero(self):
        assert y1_lower_bound(0.0, 0.0, INT, 0.0) == 0.0

    def test_background_only_channel(self):
        y0 = 5e-3
        qmu = qnu = y0
        y1 = y1_lower_bound(qmu, qnu, INT, y0)
        assert 0.0 <= y1 <= oracles.true_y1(0.0, y0)

    def test_e1_noiseless(self):
        p = params(ed=0.0)
        ch = ChannelPoint(0.1, 0.0)
        qnu, enu = gain_and_qber(INT.nu, ch, p)
        qmu, _ = gain_and_qber(INT.mu, ch, p)
        y1 = y1_lower_bound(qmu, qnu, INT, 0.0)
        assert e1_upper_bound(qnu, enu, INT.nu, y1, 0.0) == 0.0

    def test_e1_frozen_value_bounds_truth(self):
        p = params(ed=0.01)
        ch = ChannelPoint(0.1, 0.0)
        qmu, _ = gain_and_qber(INT.mu, ch, p)
        qnu, enu = gain_and_qber(INT.nu, ch, p)
        y1 = y1_lower_bound(qmu, qnu, INT, 0.0)
        e1 = e1_upper_bound(qnu, enu, INT.nu, y1, 0.0)
        assert e1 == pytest.approx(0.01264718254554585, rel=1e-12)
        assert e1 >= oracles.true_e1(0.1, 0.0, 0.5, 0.01)

    def test_e1_background_dominated_clamps(self):
        y0 = 1e-3
        ch = ChannelPoint(0.0, y0)
        qmu, _ = gain_and_qber(INT.mu, ch, PARAMS)
        qnu, enu = gain_and_qber(INT.nu, ch, PARAMS)
        y1 = y1_lower_bound(qmu, qnu, INT, y0)
        assert e1_upper_bound(qnu, enu, INT.nu, y1, y0) == 0.5

    def test_e1_undefined_when_yield_bound_zero(self):
        with pytest.raises(UndefinedBoundError):
            e1_upper_bound(0.01, 0.05, INT.nu, 0.0, 0.0)

    def test_e1_zero_decoy_intensity_rejected(self):
        # nu = 0 divided by zero: a bare ZeroDivisionError, not a DomainError
        with pytest.raises(DomainError, match="decoy intensity must be > 0"):
            e1_upper_bound(0.1, 0.02, 0.0, 0.5, 1e-6)

    def test_degenerate_intensities_rejected(self):
        with pytest.raises(ConfigError):
            DecoyIntensities(mu=0.2, nu=0.2)

    def test_safety_against_oracle_sample(self):
        # small randomized scan; the full 1e4-point suite runs in acceptance
        rng = np.random.default_rng(11)
        for _ in range(500):
            eta = 10 ** rng.uniform(-6, 0)
            y0 = rng.uniform(0.0, 1e-2)
            ed = rng.uniform(0.0, 0.1)
            qmu, _ = oracles.gain_qber(INT.mu, eta, y0, 0.5, ed)
            qnu, enu = oracles.gain_qber(INT.nu, eta, y0, 0.5, ed)
            y1 = y1_lower_bound(qmu, qnu, INT, y0)
            assert y1 <= oracles.true_y1(eta, y0) + 1e-12
            if y1 > 0.0:
                e1 = e1_upper_bound(qnu, enu, INT.nu, y1, y0)
                assert e1 >= min(0.5, oracles.true_e1(eta, y0, 0.5, ed)) - 1e-12


class TestKeyRate:
    def test_background_only_is_zero(self):
        rate = secure_key_rate_bps(ChannelPoint(0.0, 1e-3), INT, PARAMS)
        assert rate == 0.0

    def test_short_link_positive(self):
        # lossless link: eta is the detector efficiency, Y0 the dark floor
        y0 = 4 * 3.0e-7 * 2
        rate = secure_key_rate_bps(ChannelPoint(0.1, y0), INT, PARAMS)
        assert rate > 0.0
        assert math.isfinite(rate)

    def test_never_negative_never_above_clock(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            ch = ChannelPoint(10 ** rng.uniform(-6, 0), rng.uniform(0, 1e-2))
            p = params(ed=rng.uniform(0, 0.1))
            rate = secure_key_rate_bps(ch, INT, p)
            assert 0.0 <= rate <= p.clock_hz

    def test_monotone_in_y0(self):
        rates = [secure_key_rate_bps(ChannelPoint(1e-3, y0), INT, PARAMS)
                 for y0 in np.linspace(0.0, 5e-4, 40)]
        assert all(a >= b - 1e-9 for a, b in zip(rates, rates[1:]))

    def test_monotone_in_eta(self):
        rates = [secure_key_rate_bps(ChannelPoint(eta, 1e-5), INT, PARAMS)
                 for eta in np.geomspace(1e-5, 1e-1, 40)]
        assert all(b >= a - 1e-9 for a, b in zip(rates, rates[1:]))

    def test_monotone_in_misalignment(self):
        rates = [secure_key_rate_bps(ChannelPoint(1e-3, 1e-5), INT, params(ed=ed))
                 for ed in np.linspace(0.0, 0.1, 40)]
        assert all(a >= b - 1e-9 for a, b in zip(rates, rates[1:]))

    def test_details_report_clamps(self):
        detail = key_rate_details(ChannelPoint(0.0, 1e-3), INT, PARAMS)
        assert detail.rate_bps == 0.0
        assert detail.clamp_events >= 1

    def test_emission_probability_scales_rate(self):
        half = DecoyIntensities(p_mu=0.375, p_nu=0.3125, p_omega=0.3125)
        ch = ChannelPoint(1e-2, 1e-5)
        assert secure_key_rate_bps(ch, half, PARAMS) == pytest.approx(
            0.5 * secure_key_rate_bps(ch, INT, PARAMS), rel=1e-12)


class TestMaxDistance:
    def test_closed_form_crossing(self):
        result = find_rate_cliff(lambda d: 50.0 - d, 0.0, 100.0)
        assert abs(result.distance_km - 50.0) <= 0.01
        assert not result.at_upper_boundary

    def test_positive_everywhere_flags_boundary(self):
        def evaluator(d):
            return ChannelPoint(0.1 * 10 ** (-0.02 * d / 10), 1e-6)

        result = max_secure_distance_km(evaluator, INT, PARAMS, (0.0, 50.0))
        assert result.at_upper_boundary
        assert result.distance_km == 50.0

    def test_bracketing_invariant(self):
        def evaluator(d):
            return ChannelPoint(0.1 * 10 ** (-0.25 * d / 10), 2e-4)

        def rate(d):
            return secure_key_rate_bps(evaluator(d), INT, PARAMS)

        result = max_secure_distance_km(evaluator, INT, PARAMS, (0.0, 300.0))
        assert not result.at_upper_boundary
        assert rate(result.distance_km) > 0.0
        assert rate(result.distance_km + 0.01) <= 0.0

    def test_no_secure_distance(self):
        def evaluator(d):
            return ChannelPoint(1e-9, 5e-3)

        with pytest.raises(NoSecureDistanceError):
            max_secure_distance_km(evaluator, INT, PARAMS, (0.0, 50.0))

    @pytest.mark.parametrize("args", [
        (0.0, math.nan, 1.0, 0.01),
        (math.nan, 100.0, 1.0, 0.01),
        (0.0, math.inf, 1.0, 0.01),
        (-math.inf, 100.0, 1.0, 0.01),
        (0.0, 100.0, math.nan, 0.01),
        (0.0, 100.0, math.inf, 0.01),
        (0.0, 100.0, 1.0, math.nan),
    ])
    def test_non_finite_arguments_rejected(self, args):
        with pytest.raises(DomainError, match="finite"):
            find_rate_cliff(lambda d: 50.0 - d, *args)

    # Both grids would grow without bound; each is refused before the rate
    # is evaluated, the first from its computed size.
    @pytest.mark.parametrize("args, message", [
        ((0.0, 1e9, 1.0, 0.01), "exceeds 1000000 points"),
        ((0.0, 1e6, 1.0, 0.01), "exceeds 1000000 points"),
        ((1e17, 1e17 + 1000.0, 1.0, 0.01), "below the float resolution"),
    ])
    def test_unbounded_grid_rejected(self, args, message):
        def rate(d):
            raise AssertionError("rate evaluated")

        with pytest.raises(DomainError, match=message):
            find_rate_cliff(rate, *args)


def _coarse_grid(from_km, to_km, coarse_step_km):
    grid = [from_km]
    d = from_km
    while d < to_km:
        d = min(d + coarse_step_km, to_km)
        if d == grid[-1]:
            raise DomainError(f"coarse step {coarse_step_km} km is below the "
                              f"float resolution at {d} km")
        grid.append(d)
    return grid


def _bottom_up_cliff(rate_fn, from_km, to_km, coarse_step_km=1.0,
                     resolution_km=0.01):
    """`find_rate_cliff` as it was before the top-down scan: every coarse
    point is evaluated from the bottom up, and the last positive one
    starts the bisection."""
    if not all(map(math.isfinite, (from_km, to_km, coarse_step_km, resolution_km))):
        raise DomainError(f"search range and steps must be finite, got "
                          f"[{from_km}, {to_km}], {coarse_step_km}, {resolution_km}")
    if to_km < from_km:
        raise DomainError(f"empty search range [{from_km}, {to_km}]")
    if coarse_step_km <= 0.0 or resolution_km <= 0.0:
        raise DomainError("steps must be > 0")
    if (to_km - from_km) / coarse_step_km >= 1_000_000:
        raise DomainError(f"coarse grid over [{from_km}, {to_km}] km at "
                          f"{coarse_step_km} km exceeds 1000000 points")
    grid = _coarse_grid(from_km, to_km, coarse_step_km)
    positive = [rate_fn(d) > 0.0 for d in grid]
    if not any(positive):
        raise NoSecureDistanceError(
            f"key rate is non-positive over [{from_km}, {to_km}] km")
    last = max(i for i, p in enumerate(positive) if p)
    if last == len(grid) - 1:
        return DistanceResult(grid[last], at_upper_boundary=True)
    lo, hi = grid[last], grid[last + 1]
    while hi - lo > resolution_km:
        mid = 0.5 * (lo + hi)
        if rate_fn(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return DistanceResult(lo, at_upper_boundary=False)


# Search ranges for the coarse grid: ordinary ones, ones where the step is
# near the float resolution (it stalls, or rounds to a shorter or longer
# step), and integer ones.
_grid_ranges = st.one_of(
    st.tuples(st.floats(-50.0, 400.0), st.floats(0.0, 300.0),
              st.floats(0.01, 40.0)),
    st.tuples(st.sampled_from([1e15, 2.0**52, 2.0**53 - 64.0, 1e16, 1e17]),
              st.floats(0.0, 64.0), st.floats(0.1, 4.0)),
    st.tuples(st.integers(0, 300), st.integers(0, 300), st.integers(1, 40)),
)


@given(case=_grid_ranges)
@example(case=(2.0**53 - 64.0, 64.0, 1.25))   # each step rounds to 1.0
@example(case=(1e16, 16.0, 1.0))              # the first step stalls
@example(case=(0, 300, 1.0))                  # float sums, an int end
def test_coarse_grid_matches_stepping_loop(case):
    # With a zero rate the scan evaluates the whole grid, top down.
    from_km, length, step = case
    to_km = from_km + length
    try:
        expected = [(type(d), repr(d))
                    for d in _coarse_grid(from_km, to_km, step)]
    except DomainError as exc:
        expected = str(exc)
    calls = []
    with pytest.raises((DomainError, NoSecureDistanceError)) as info:
        find_rate_cliff(lambda d: calls.append(d) or 0.0, from_km, to_km, step)
    if isinstance(expected, str):
        assert (calls, str(info.value)) == ([], expected)
    else:
        assert [(type(d), repr(d)) for d in calls[::-1]] == expected


_RATES = (1.0, 0.0, -1.0, math.nan, 5e-324, 2.5e4)


@st.composite
def _cliff_cases(draw):
    """A search range with coarse and fine steps, and a pure rate function:
    a drawn pattern of rates on the coarse grid, and a cut below which the
    rate is positive everywhere else (at the bisection midpoints)."""
    from_km = draw(st.floats(-50.0, 400.0))
    to_km = from_km + draw(st.floats(-1.0, 300.0))
    step = draw(st.floats(0.5, 40.0))
    resolution = draw(st.floats(1e-3, 2.0))
    rng = draw(st.randoms(use_true_random=False))
    cut = draw(st.floats(-50.0, 700.0))
    grid = _coarse_grid(from_km, to_km, step) if to_km >= from_km else []
    n = len(grid)
    kind = draw(st.sampled_from(("random", "zeros", "top", "isolated")))
    if kind == "random":
        values = [rng.choice(_RATES) for _ in grid]
    elif kind == "zeros":
        values = [0.0] * n
    elif kind == "top":
        values = [0.0] * (n - 1) + [1.0]
    else:
        # one positive point with non-positive rates above it
        top = rng.randrange(max(n, 1))
        values = ([rng.choice(_RATES) for _ in range(top)] + [2.5e4]
                  + [rng.choice((0.0, -1.0, math.nan)) for _ in range(n - top - 1)])
    on_grid = dict(zip(grid, values))  # nothing for an empty range

    def rate(d):
        return on_grid[d] if d in on_grid else (1.0 if d < cut else 0.0)
    return rate, (from_km, to_km, step, resolution), grid


def _outcome(search, rate_fn, args):
    try:
        return search(rate_fn, *args)
    except (DomainError, NoSecureDistanceError) as exc:
        return type(exc), str(exc)


class TestTopDownScan:
    @given(case=_cliff_cases())
    def test_matches_bottom_up_scan(self, case):
        rate, args, grid = case
        calls = []

        def recorded(d):
            calls.append(d)
            return rate(d)

        result = _outcome(find_rate_cliff, recorded, args)
        assert result == _outcome(_bottom_up_cliff, rate, args)
        if isinstance(result, DistanceResult):
            # The scan stops at the last positive grid point, the bottom of
            # the bisection bracket: nothing below it is evaluated.
            bracket_lo = max(d for d in grid if d <= result.distance_km)
            assert min(calls) == bracket_lo
        elif result[0] is NoSecureDistanceError:
            assert calls == grid[::-1]
        else:
            assert calls == []

    def test_raise_below_last_positive_point_not_surfaced(self):
        def rate(d):
            if d < 1.0:
                raise AssertionError("evaluated below the last positive point")
            return 1.0

        assert find_rate_cliff(rate, 0.0, 5.0) == DistanceResult(5.0, True)

    def test_negative_start_rejected_before_rate(self, monkeypatch):
        calls = []

        def counting(rate_fn, *args):
            return find_rate_cliff(lambda d: calls.append(d) or rate_fn(d),
                                   *args)

        monkeypatch.setattr(scenario, "find_rate_cliff", counting)
        with pytest.raises(ConfigError,
                           match=re.escape("link length must be >= 0 km, got -1.0")):
            max_secure_distance(get_preset("smf"), from_km=-1.0)
        assert calls == []
        max_secure_distance(get_preset("smf"), from_km=0.0)
        assert calls


class TestBackgroundYield:
    def test_dark_composition(self):
        y0 = background_yield(DetectorSpec(), PARAMS, 0.0)
        assert y0 == pytest.approx(2.4e-6, rel=1e-12)

    def test_noise_divisor_default_is_clock(self):
        y0 = background_yield(DetectorSpec(), PARAMS, 625.0)
        assert y0 == pytest.approx(2.4e-6 + 1e-6, rel=1e-12)

    def test_explicit_gate_divisor(self):
        det = DetectorSpec()
        y0 = background_yield(det, PARAMS, 1250.0,
                              per_pulse_divisor_hz=det.gate_hz)
        assert y0 == pytest.approx(2.4e-6 + 1e-6, rel=1e-12)

    def test_zero_divisor_rejected(self):
        with pytest.raises(DomainError, match="divisor"):
            background_yield(DetectorSpec(), PARAMS, 1250.0,
                             per_pulse_divisor_hz=0.0)

    @pytest.mark.parametrize("rate, divisor, message", [
        (1250.0, math.nan, "divisor"), (-1.0, None, "noise rate"),
        (math.nan, None, "noise rate")])
    def test_nan_or_negative_rejected(self, rate, divisor, message):
        with pytest.raises(DomainError, match=message):
            background_yield(DetectorSpec(), PARAMS, rate,
                             per_pulse_divisor_hz=divisor)


class TestPowerConversion:
    def test_largest_finite_power(self):
        assert dbm_to_mw(3082.5) == pytest.approx(10.0 ** 308.25, rel=1e-12)
        assert dbm_to_mw(-4000.0) == 0.0

    @pytest.mark.parametrize("dbm", (3082.6, 4000.0, 1e300))
    def test_overflowing_power_rejected(self, dbm):
        with pytest.raises(DomainError, match=re.escape(f"power {dbm} dBm")):
            dbm_to_mw(dbm)


def _bits(*values):
    """Each value as its exact bits: float.hex tells -0.0 from 0.0."""
    return [v.hex() if isinstance(v, float) else v for v in values]


# Probabilities over [0, 1] with weight on 0.0, the subnormals and 1.0.
_PROB = st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1e-300),
                  st.sampled_from((0.0, 5e-324, 1.0)))


# The clamp-count reference of TestBoundKernel: each raw bound with the
# operations of `y1_lower_bound` and `e1_upper_bound` in their order, and 1
# if it is clamped, else 0.

def _y1_lower(qmu, qnu, mu, nu, y0):
    denom = mu * nu - nu * nu
    raw = (mu / denom) * (
        qnu * math.exp(nu)
        - qmu * math.exp(mu) * (nu * nu) / (mu * mu)
        - (mu * mu - nu * nu) / (mu * mu) * y0
    )
    return raw, int(raw < 0.0 or raw > 1.0)


def _e1_upper(enu, qnu, nu, y1, y0, e0):
    raw = (enu * qnu * math.exp(nu) - e0 * y0) / (y1 * nu)
    return raw, int(raw < 0.0 or raw > 0.5)


class TestBoundKernel:
    """`decoy._kernel` evaluates a point through the three steps of
    `decoy._decoy_steps`, which bind the intensity constants once and write
    the gains, the bounds and the entropies out; every field must carry the
    bits of the public helpers that state each step. The calibration runs
    the same steps, so this pins its values too."""

    @given(eta=_PROB, y0=_PROB.filter(lambda y: y < 1.0),
           mu=st.floats(1e-3, 30.0), nu_share=st.floats(1e-3, 0.999),
           ed=st.floats(0.0, 0.4999), f=st.floats(1.0, 2.0))
    # a raw Y1 bound of exactly 0.0: unclamped, then one clamp event
    @example(eta=0.0, y0=0.0, mu=0.4, nu_share=0.5, ed=0.033, f=1.16)
    # a raw Y1 bound above 1: clamped to 1 before the products
    @example(eta=1.0, y0=0.5, mu=0.1, nu_share=0.1, ed=0.033, f=1.16)
    def test_matches_public_helpers(self, eta, y0, mu, nu_share, ed, f):
        try:
            intensities = DecoyIntensities(mu=mu, nu=mu * nu_share)
        except ConfigError:
            assume(False)
        nu = intensities.nu
        prm = params(ed, f)
        qmu, emu, qnu, enu, y1, e1, r, rate, clamps = _kernel(
            intensities, prm)(eta, y0)
        ch = ChannelPoint(eta, y0)
        assert _bits(qmu, emu) == _bits(*gain_and_qber(mu, ch, prm))
        assert _bits(qnu, enu) == _bits(*gain_and_qber(nu, ch, prm))
        assert _bits(y1) == _bits(y1_lower_bound(qmu, qnu, intensities, y0))
        _, expected_clamps = _y1_lower(qmu, qnu, mu, nu, y0)
        if y1 <= 0.0:
            expected_r, expected_e1 = 0.0, 0.5
            expected_clamps += 1
        else:
            expected_e1 = e1_upper_bound(qnu, enu, nu, y1, y0)
            expected_clamps += _e1_upper(enu, qnu, nu, y1, y0, 0.5)[1]
            single = y1 * mu * math.exp(-mu) * (1.0 - binary_entropy(e1))
            expected_r = prm.sifting_factor * (
                -qmu * f * binary_entropy(emu) + single)
            if expected_r < 0.0:
                expected_r = 0.0
        assert _bits(e1, r, clamps) == _bits(expected_e1, expected_r,
                                             expected_clamps)
        assert _bits(rate) == _bits(r * prm.clock_hz * intensities.p_mu)

    def test_raw_zero_yield_bound_is_unclamped(self):
        # A dark, noiseless channel: both gains are 0 and the raw Y1 bound
        # is exactly 0.0. It is returned as it is, not through the `< 0`
        # clamp, and the vanished bound then counts one clamp event.
        qmu, _, qnu, _, y1, e1, r, _, clamps = _kernel(INT, PARAMS)(0.0, 0.0)
        assert _bits(qmu, qnu, y1) == _bits(0.0, 0.0, 0.0)
        assert (e1, r, clamps) == (0.5, 0.0, 1)
        # a raw bound of -0.0 keeps its sign
        assert _bits(y1_lower_bound(0.0, -0.0, INT, 0.0)) == _bits(-0.0)
