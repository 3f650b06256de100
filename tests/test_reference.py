"""Differential test of the per-point chain against the benchmark's
reference model (`qkdbench/reference.py`).

The reference is written separately from the published formulas and
imports nothing from qkdcoex, so this checks the physics rather than the
package's formulas against themselves. Every field must agree to 1e-9 of
the reference's error scale for it, the tolerance `qkdbench/checks.py`
applies; correct code agrees to a few parts in 1e16 of that scale.
"""

import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "qkdbench"))
import inputs  # noqa: E402
import reference  # noqa: E402

from qkdcoex.config import load_scenario  # noqa: E402
from qkdcoex.presets import get_preset, preset_names  # noqa: E402
from qkdcoex.scenario import RESULT_FIELDS, evaluate_at  # noqa: E402

EPS = 1e-9
DISTANCES = [2.5 * i for i in range(121)] + [0.01, 63.0, 65.0, 86.0, 91.44,
                                             179.09, 212.51, 299.99]


def assert_matches_reference(scenario, link: dict, d: float):
    row = evaluate_at(scenario, d)
    ref = reference.point(link, d)
    for name in RESULT_FIELDS[:-1]:
        value, expected = getattr(row, name), ref[name]
        assert abs(value - expected) <= EPS * ref["scale"][name] + 1e-300, (
            f"{scenario.name} at {d} km: {name} = {value!r}, "
            f"reference {expected!r}")
    # The feasibility flag may differ only within rounding of the margin.
    if abs(ref["closure_margin_db"]) > 1e-6:
        assert row.classical_feasible == ref["classical_feasible"]


@pytest.mark.parametrize("name", preset_names())
def test_presets_match_reference(name):
    scenario, link = get_preset(name), inputs.preset_link(name)
    for d in DISTANCES:
        assert_matches_reference(scenario, link, d)


# Physical scenarios with the parameter ranges of the benchmark's generated
# INI files: each example is an INI text and the flat numbers it encodes.
ini_scenarios = st.builds(
    inputs._ini_scenario, st.randoms(use_true_random=False),
    st.sampled_from(("smf", "lp01in", "lp02in")), st.booleans(),
    st.sampled_from(("quantum", "classical")),
    st.sampled_from(("clock", "gate")), extra_il=st.booleans())


@given(ini=ini_scenarios,
       distances=st.lists(st.floats(0.0, 300.0), min_size=1, max_size=4))
def test_random_scenarios_match_reference(ini, distances):
    text, link = ini
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "random.ini"
        path.write_text(text, encoding="utf-8")
        scenario = load_scenario(path)
    for d in distances:
        assert_matches_reference(scenario, link, d)
