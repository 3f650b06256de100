"""The intensities the vacuum+weak decoy bound can evaluate.

`DecoyIntensities` is the one place the domain is checked: a pair is either
rejected with a ConfigError (exit code 1 from the CLI), or every result
field is finite at every distance on every preset.
"""

import math
import sys
from dataclasses import astuple, replace

import pytest
from hypothesis import example, given, settings, strategies as st

from qkdcoex.cli import main
from qkdcoex.decoy import DecoyIntensities
from qkdcoex.errors import ConfigError
from qkdcoex.presets import get_preset, preset_names
from qkdcoex.scenario import evaluate_at

PRESETS = [get_preset(name) for name in preset_names()]
DISTANCES_KM = (0.0, 1.0, 50.0, 300.0, 1e4)

SMF_INI = """
[fiber]
kind = smf
scheme = smf
attenuation_quantum_db_per_km = 0.190
attenuation_classical_db_per_km = 0.192

[components]
mux_il_db = 0.49
demux_il_db = 0.36

[raman]
coefficient_cps_per_mw_km = 12076

[quantum]
"""

# Finite floats over the whole range, with weight on the subnormals, on
# intensities near 1 and on the overflow edge of e^mu (about 709.78).
_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=1e-300),
    st.floats(min_value=0.0, max_value=2.0),
    st.floats(min_value=700.0, max_value=720.0),
)


@pytest.mark.parametrize("mu, nu", [
    (800.0, 0.2),           # e^mu overflows
    (709.78, 0.2),          # e^mu finite, but a gain times e^mu overflows
    (1.0, 1e-310),          # mu / (mu*nu - nu^2) overflows
    (1e-323, 5e-324),       # mu*nu - nu^2 underflows to zero
])
def test_rejected(mu, nu):
    with pytest.raises(ConfigError, match="domain of the decoy bound"):
        DecoyIntensities(mu=mu, nu=nu)


def test_accepted_edge_is_finite():
    mu = math.log(sys.float_info.max) - 1.0
    intensities = DecoyIntensities(mu=mu, nu=mu / 2.0)
    for scenario in PRESETS:
        row = evaluate_at(replace(scenario, intensities=intensities), 0.0)
        assert all(map(math.isfinite, astuple(row)[:-1]))


@settings(max_examples=300, deadline=None)
@given(mu=_FINITE, nu=_FINITE)
@example(mu=800.0, nu=0.2)
@example(mu=1.0, nu=1e-310)
def test_accepted_intensities_give_finite_fields(mu, nu):
    for scenario in PRESETS:
        try:
            intensities = replace(scenario.intensities, mu=mu, nu=nu)
        except ConfigError:
            continue
        resolved = replace(scenario, intensities=intensities)
        for d in DISTANCES_KM:
            row = evaluate_at(resolved, d)
            assert all(map(math.isfinite, astuple(row)[:-1])), row


@pytest.mark.parametrize("quantum", ["mu = 800", "mu = 1.0\nnu = 1e-310"])
@pytest.mark.parametrize("argv", [
    ["max-distance"],
    ["sweep", "--from-km", "50", "--to-km", "51", "--step-km", "1"],
])
def test_cli_rejects_with_exit_1(quantum, argv, tmp_path, capsys):
    path = tmp_path / "f.ini"
    path.write_text(SMF_INI + quantum + "\n", encoding="utf-8")
    assert main([argv[0], "--scenario", str(path), *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "domain of the decoy bound" in captured.err
