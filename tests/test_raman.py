import math
import re
import sys
from collections import deque

import pytest
from hypothesis import assume, given, strategies as st

from qkdcoex.errors import ConfigError, DegenerateFitError, DomainError
from qkdcoex.link import SchemeName
from qkdcoex.raman import (NoiseMeasurement, RamanCoefficient,
                           coefficient_suppression,
                           detected_count_suppression, fit_raman_coefficient,
                           noise_prob_per_pulse, peak_noise_distance_km,
                           read_measurements_csv, srs_noise_rate_cps)

SMF_RHO = RamanCoefficient(12076.0, SchemeName.SMF)
POWER_MW = 10 ** (-2.60 / 10)  # -2.60 dBm fiber-input power


class TestNoiseRate:
    def test_zero_power(self):
        assert srs_noise_rate_cps(0.0, SMF_RHO, 50.0, 0.190) == 0.0

    def test_zero_distance(self):
        assert srs_noise_rate_cps(POWER_MW, SMF_RHO, 0.0, 0.190) == 0.0

    def test_smf_50km(self):
        # 0.5495 mW * 12076 cps/(mW km) * 50 km * 10^(-0.95)
        rate = srs_noise_rate_cps(POWER_MW, SMF_RHO, 50.0, 0.190)
        assert rate == pytest.approx(37230.0062123963, rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            srs_noise_rate_cps(-1.0, SMF_RHO, 50.0, 0.190)
        with pytest.raises(DomainError):
            srs_noise_rate_cps(1.0, SMF_RHO, -50.0, 0.190)

    @pytest.mark.parametrize("length", [1e300, 1e306, sys.float_info.max])
    def test_astronomical_distance_is_zero(self, length):
        # power*rho*L overflows to inf while the attenuation is 0.0.
        assert srs_noise_rate_cps(POWER_MW, SMF_RHO, length, 0.190) == 0.0

    def test_overflowing_rate_rejected(self):
        # Unattenuated, the rate itself exceeds the float range.
        with pytest.raises(DomainError, match="overflows"):
            srs_noise_rate_cps(1e300, SMF_RHO, 1e300, 0.0)

    @given(power=st.floats(0.0, 1e3), length=st.floats(0.0, 200.0),
           alpha=st.floats(0.01, 0.99))
    def test_linearity_in_power_exact(self, power, length, alpha):
        rate = srs_noise_rate_cps(power, SMF_RHO, length, alpha)
        # rho is an integer, so power*rho is exact even when subnormal, and a
        # normal rate keeps every later product normal, where doubling is exact
        assume(rate > sys.float_info.min)
        double = srs_noise_rate_cps(2.0 * power, SMF_RHO, length, alpha)
        assert double == 2.0 * rate

    def test_unimodal_peak_location(self):
        # interior maximum at L* = 10 / (alpha ln 10), found by the sign
        # change of a central finite difference at 0.1 km resolution
        alpha = 0.190
        lstar = peak_noise_distance_km(alpha)
        assert lstar == pytest.approx(22.85760431069746, rel=1e-12)

        def rate(d):
            return srs_noise_rate_cps(POWER_MW, SMF_RHO, d, alpha)

        h = 0.05
        fd_before = rate(lstar - 0.1 + h) - rate(lstar - 0.1 - h)
        fd_after = rate(lstar + 0.1 + h) - rate(lstar + 0.1 - h)
        assert fd_before > 0.0 > fd_after
        assert rate(lstar) > rate(lstar - 0.1)
        assert rate(lstar) > rate(lstar + 0.1)


class TestNoiseProbability:
    def test_zero_rate(self):
        assert noise_prob_per_pulse(0.0, 625e6) == 0.0

    def test_signed_zero_rate_kept(self):
        # min(1, rate / clock) keeps the sign of a zero rate
        assert noise_prob_per_pulse(-0.0, 625e6).hex() == "-0x0.0p+0"
        assert noise_prob_per_pulse(0.0, 625e6).hex() == "0x0.0p+0"

    def test_saturation(self):
        assert noise_prob_per_pulse(6.25e8, 6.25e8) == 1.0
        assert noise_prob_per_pulse(7e8, 6.25e8) == 1.0

    def test_division(self):
        rate = srs_noise_rate_cps(POWER_MW, SMF_RHO, 50.0, 0.190)
        assert noise_prob_per_pulse(rate, 625e6) == pytest.approx(
            5.956800993983408e-05, rel=1e-12)

    def test_bad_clock(self):
        with pytest.raises(DomainError):
            noise_prob_per_pulse(1.0, 0.0)

    @pytest.mark.parametrize("rate, clock", [
        (1.0, math.nan), (-1.0, 625e6), (math.nan, 625e6)])
    def test_nan_or_negative_rejected(self, rate, clock):
        with pytest.raises(DomainError):
            noise_prob_per_pulse(rate, clock)


class TestFit:
    def test_single_point_exact_inversion(self):
        alpha = 0.2
        truth = 1000.0
        rate = truth * 0.8 * 30.0 * 10 ** (-alpha * 30.0 / 10)
        fit = fit_raman_coefficient(
            [NoiseMeasurement(30.0, 0.8, rate)], alpha)
        assert fit.rho_cps_per_mw_km == pytest.approx(1000.0, rel=1e-12)

    def test_noiseless_round_trip(self):
        alpha = 0.226
        truth = RamanCoefficient(2637.0, SchemeName.LP01_IN)
        points = [
            NoiseMeasurement(d, POWER_MW,
                             srs_noise_rate_cps(POWER_MW, truth, d, alpha))
            for d in (10.0, 25.0, 50.0, 75.0, 100.0)
        ]
        fit = fit_raman_coefficient(points, alpha, SchemeName.LP01_IN)
        assert fit.rho_cps_per_mw_km == pytest.approx(2637.0, rel=1e-9)
        assert fit.scheme is SchemeName.LP01_IN

    def test_bounded_residual_under_perturbation(self):
        # +-5% multiplicative perturbation keeps the weighted-average
        # estimate within +-5% of the truth
        alpha = 0.190
        truth = 12076.0
        factors = (1.05, 0.95, 1.05, 0.95, 1.05)
        points = [
            NoiseMeasurement(d, POWER_MW,
                             f * truth * POWER_MW * d * 10 ** (-alpha * d / 10))
            for d, f in zip((10.0, 25.0, 50.0, 75.0, 100.0), factors)
        ]
        fit = fit_raman_coefficient(points, alpha)
        assert 0.95 * truth <= fit.rho_cps_per_mw_km <= 1.05 * truth

    def test_requires_usable_measurement(self):
        with pytest.raises(DomainError):
            fit_raman_coefficient([NoiseMeasurement(0.0, 1.0, 5.0)], 0.2)

    def test_degenerate_fit(self):
        # model value underflows to zero at absurd distance
        with pytest.raises(DegenerateFitError):
            fit_raman_coefficient([NoiseMeasurement(1e6, 1.0, 5.0)], 0.9)

    # A negative attenuation amplifies the fiber; NaN and inf gave
    # misleading overflow and degenerate-fit errors.
    @pytest.mark.parametrize("alpha", (-0.5, -1e-300, math.nan, math.inf,
                                       -math.inf))
    def test_attenuation_rejected(self, alpha):
        with pytest.raises(DomainError, match="attenuation must be finite"):
            fit_raman_coefficient([NoiseMeasurement(30.0, 0.8, 5.0)], alpha)

    def test_zero_attenuation_fits(self):
        fit = fit_raman_coefficient([NoiseMeasurement(30.0, 0.8, 48.0)], 0.0)
        assert fit.rho_cps_per_mw_km == pytest.approx(2.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigError):
            NoiseMeasurement(-1.0, 1.0, 1.0)
        with pytest.raises(ConfigError):
            RamanCoefficient(0.0)


class TestMeasurementCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "noise.csv"
        path.write_text("distance_km,power_mw,rate_cps\n"
                        "10,0.5495,5000.0\n"
                        "50.5,0.5495,31000.25\n", encoding="utf-8")
        points = read_measurements_csv(path)
        assert points == (NoiseMeasurement(10.0, 0.5495, 5000.0),
                          NoiseMeasurement(50.5, 0.5495, 31000.25))

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "noise.csv"
        path.write_bytes(b"distance_km,power_mw,rate_cps\n10,0.5,50\xff\n")
        with pytest.raises(ConfigError, match="not UTF-8 text"):
            read_measurements_csv(path)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "noise.csv"
        path.write_text("km,mw,cps\n1,1,1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="header"):
            read_measurements_csv(path)

    def test_non_numeric_names_line(self, tmp_path):
        path = tmp_path / "noise.csv"
        path.write_text("distance_km,power_mw,rate_cps\n1,1,1\n2,oops,3\n",
                        encoding="utf-8")
        with pytest.raises(ConfigError, match=":3"):
            read_measurements_csv(path)

    # A blank line is skipped, and a message names the line of the file,
    # counting the blank lines, whatever the line ends are.
    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"],
                             ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("last, message", [
        ("20,0.5,x", "non-numeric field"),
        ("20,0.5", "expected 3 fields, got 2"),
    ], ids=["non-numeric", "field-count"])
    def test_message_counts_blank_lines(self, end, last, message, tmp_path):
        path = tmp_path / "noise.csv"
        lines = ["distance_km,power_mw,rate_cps", "", "10,0.5,5000", "", last]
        path.write_bytes(end.join(lines + [""]).encode())
        with pytest.raises(ConfigError) as exc:
            read_measurements_csv(path)
        assert str(exc.value) == f"{path}:5: {message}"

    # csv refuses a field longer than csv.field_size_limit() (131,072
    # characters by default), in the header as in a row.
    @pytest.mark.parametrize("text", [
        "distance_km,power_mw,rate_cps" + "x" * 131_073 + "\n10,0.5,5000\n",
        "distance_km,power_mw,rate_cps\n10,0.5," + "5" * 131_073 + "\n",
    ], ids=["header", "row"])
    def test_oversized_field(self, text, tmp_path):
        path = tmp_path / "noise.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match=re.escape(
                f"{path}: field larger than field limit")):
            read_measurements_csv(path)


class TestSuppression:
    def test_coefficient_level(self):
        # 1 - mean(2637, 2655) / 12076
        value = coefficient_suppression(12076.0, (2637.0, 2655.0))
        assert value == pytest.approx(0.7808877111626367, abs=1e-12)

    def test_distance_averaged(self):
        distances = [10.0 + k for k in range(71)]
        value = detected_count_suppression(
            (12076.0, 0.190), [(2637.0, 0.257), (2655.0, 0.226)], distances)
        assert value == pytest.approx(0.8659007667197542, rel=1e-12)

    def test_degenerate_inputs(self):
        with pytest.raises(DomainError):
            coefficient_suppression(0.0, (1.0,))
        with pytest.raises(DomainError):
            detected_count_suppression((1.0, 0.2), [(1.0, 0.2)], [])

    def test_overflowing_ratio_rejected(self):
        # 1e10 / 1e-300 overflows: the reduction at 10 km is -inf
        with pytest.raises(DomainError, match="suppression is not finite"):
            detected_count_suppression((1e-300, 0.2), [(1e10, 0.2)], [10.0])

    # Each container is read as a tuple, which the number rule walks: an
    # int beyond the float range in a deque is refused like one in a list,
    # and a generator of entries is read once.
    @pytest.mark.parametrize("args, name", [
        ((deque([2**1100, 0.19]), [(2637.0, 0.257)], [50.0]), "smf"),
        (((12076.0, 0.19), deque([(2**1100, 0.226)]), [50.0]), "fmf"),
        (((12076.0, 0.19), [deque([2**1100, 0.226])], [50.0]), "fmf"),
        (((12076.0, 0.19), [(2637.0, 0.257)], deque([2**1100])),
         "distances_km"),
    ], ids=["smf-deque", "fmf-deque", "fmf-pair-deque", "distances-deque"])
    def test_other_containers_keep_the_number_rule(self, args, name):
        with pytest.raises(DomainError, match=f"^detected_count_suppression "
                           f"{name} is too large to convert to a float$"):
            detected_count_suppression(*args)

    def test_generator_entries(self):
        fmf = [(2637.0, 0.257), (2655.0, 0.226)]
        distances = [10.0 + k for k in range(71)]
        expected = detected_count_suppression((12076.0, 0.190), fmf, distances)
        assert detected_count_suppression(
            (12076.0, 0.190), (pair for pair in fmf),
            (d for d in distances)) == expected

    def test_no_fmf_entries_rejected(self):
        # the FMF mean divided by zero: a bare ZeroDivisionError
        with pytest.raises(DomainError, match="one FMF entry"):
            detected_count_suppression((1.0, 0.2), [], [1.0])
