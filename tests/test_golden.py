"""Golden output bytes of the sweep tables.

Each digest is the sha256 of a whole output, recorded before the
column-wise, streamed emitters replaced the per-row formatters. The same
bytes must come out of the library functions and out of the CLI writing
to a file, for every preset over 0-300 km at 0.1 km (3,001 rows).
Anything that changes a digest changes the published results; such a
change needs its own reason, stated where the digest is updated.
"""

import hashlib

import pytest

from qkdcoex import get_preset, preset_names
from qkdcoex.cli import main
from qkdcoex.scenario import SweepSpec, rows_to_csv, rows_to_json, run_sweep

GRID = ("0", "300", "0.1")

# preset -> (CSV sha256, JSON sha256) over GRID
GOLDEN = {
    "smf": ("ef75e7d35de12f00b9b6b3da0a57478b5309df10b14d6baf57d50606a633f5b6",
            "dc7e773a0c2a11997a9f77e7757b2e06d934429b4d0360abf7006b7f0f531f21"),
    "lp01in": ("9d6896dd664ab391404483d55be8ee0dae92e140ab6ceadbed4f8bb98c139a38",
               "fc72660f0ab33e2bf53eea6f05af38adb430f4da715c2a248abd8d13296cccfc"),
    "lp02in": ("707532920a087682bba60d8232d909c13a89cccceae5f8b4444d008721659a12",
               "9d9f79714f60e9090f7de1b59755de0f34c3c022b53061bd0d58b298262cceb3"),
    "fig4-power": ("d9a548f7dd55afcf446af040690b204478fcc79644995388d043c332ca22877c",
                   "0d06dffb62438c5fd369d3d4ab6b5191db971707efbe7cd1973cd9eca09213c9"),
    "fig4-power-fmf": ("cdf45738d999e672c45c48e119de90928e7737f086873b602ec8c674aaa7d813",
                       "cfbe242c8ea5ce1285467db28e5fde0e3a10804d61143b47a69ace3e77595222"),
    "fig4-full": ("bf4f54b828add3cd274d2468572faf2944dfafce7f55f1cf44ca28219c9a1d89",
                  "96c53bce5e534d4e3ffad0a95630d6db98d974e5869132da3b742846c3927cf6"),
}


def _sha(text) -> str:
    data = text.encode("utf-8") if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def test_covers_every_preset():
    assert sorted(GOLDEN) == sorted(preset_names())


@pytest.mark.parametrize("preset", sorted(GOLDEN))
def test_library_tables(preset):
    rows = run_sweep(get_preset(preset), SweepSpec(*map(float, GRID)))
    assert len(rows) == 3001
    assert (_sha(rows_to_csv(rows)), _sha(rows_to_json(rows))) == GOLDEN[preset]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("preset", sorted(GOLDEN))
def test_cli_out_file(preset, fmt, tmp_path):
    out = tmp_path / f"rows.{fmt}"
    assert main(["sweep", "--preset", preset, "--from-km", GRID[0],
                 "--to-km", GRID[1], "--step-km", GRID[2],
                 "--format", fmt, "--out", str(out)]) == 0
    assert _sha(out.read_bytes()) == GOLDEN[preset][fmt == "json"]


def test_empty_tables():
    assert rows_to_csv([]) == (
        "distance_km,launch_power_dbm,quantum_loss_db,classical_loss_db,"
        "srs_rate_cps,y0,q_mu,e_mu,y1_lower,e1_upper,key_rate_bps,"
        "classical_feasible\n")
    assert _sha(rows_to_csv([])) == (
        "a147d4cfcf1b70fa7de49754a6031452de48bd7e240a96cfa9c8e281266870e2")
    assert rows_to_json([]) == "[]\n"
    assert _sha(rows_to_json([])) == (
        "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570")
