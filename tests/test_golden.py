"""Golden output bytes of the sweep tables and of the calibration.

Each digest is the sha256 of a whole output. The sweep digests were
recorded before the column-wise, streamed emitters replaced the per-row
formatters: the same bytes must come out of the library functions and out
of the CLI writing to a file, for every preset over 0-300 km at 0.1 km
(3,001 rows). The calibration digests were recorded with the per-cell
grid search, before the grid was evaluated by row: they cover
`repr(calibrate(...))` on the reference targets and on fixed synthetic
target sets, and the CLI `calibrate` text and JSON. The `max-distance`
digests were recorded before the rate kernel was folded into one closure
and the background error became a constant: the CLI text and JSON of every
preset, with and without `--ignore-classical-budget`. The offset-range
`max-distance` digests were recorded before the coarse scan of the cliff
search ran from the top down: text and JSON, exit code and stderr, for every
preset, budget on and off, on ranges whose grid is offset from whole
kilometres, that end below the cliff, that hold one point, that start past a
cliff (exit 2), and on 250-260 km, where no preset has a secure distance.
The preset digests cover `repr(get_preset(name))`; they were recorded while
each call still built its preset anew, before the presets became shared
values with read-only maps.
Anything that changes a digest changes the published results; such a
change needs its own reason, stated where the digest is updated.
"""

import hashlib

import pytest

from qkdcoex import REFERENCE_TARGETS, get_preset, preset_names
from qkdcoex.cli import main
from qkdcoex.scenario import (CalibrationTarget, SweepSpec, calibrate,
                              max_secure_distance, rows_to_csv, rows_to_json,
                              run_sweep)

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


# preset -> sha256 of repr(get_preset(preset))
PRESET_REPR_GOLDEN = {
    "smf": "217a1925724a287a84dc14e5568b830ed1c81037d7a13ea75529b8e3c216937d",
    "lp01in": "c4f00ce1e500b6736d101496e705362ed4c2665cc830509bec10ad372b84f62b",
    "lp02in": "e3abe0721c68abb0a7ffb04d34fd88a5c7b4e138d908849302c6875d477115bb",
    "fig4-power": "bf4f420b557a6bc17bd989318330744a5a2db3602cb0c755bc0c2928af77dd99",
    "fig4-power-fmf":
        "06493c392a3dad11190a9e329e66feb2734de2ce0232d9377020d43a987b1983",
    "fig4-full": "fd1f2397cefb9938d419c3a1aebe7bdc83dbef2a2014efeefffd0ec5f683a2e7",
}


def _sha(text) -> str:
    data = text.encode("utf-8") if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def test_covers_every_preset():
    assert sorted(GOLDEN) == sorted(preset_names())
    assert sorted(PRESET_REPR_GOLDEN) == sorted(preset_names())


@pytest.mark.parametrize("preset", sorted(PRESET_REPR_GOLDEN))
def test_preset_repr(preset):
    assert _sha(repr(get_preset(preset))) == PRESET_REPR_GOLDEN[preset]


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


# (preset, distance_km, key_rate_bps, qber) per target. Sets 0-3 are the
# model's own outputs at on-grid and off-grid (e_d, f); set 4 perturbs set
# 2's rates and QBERs; sets 5-7 mix presets, distances and set sizes; sets
# 8 and 9 lie near the rate cliff, where part of the grid is infinite.
CALIBRATION_SETS = (
    (("smf", 63.0, 187743.13307382114, 0.022275721397920487),
     ("lp01in", 65.0, 14150.195191712963, 0.027231444572812378),
     ("lp02in", 86.0, 12006.746903247657, 0.02703846145992138)),
    (("smf", 63.0, 62637.475651055414, 0.04087564208119817),
     ("lp01in", 65.0, 3640.2490900545995, 0.045638417017723365),
     ("lp02in", 86.0, 3127.2626414070633, 0.045452947591604766)),
    (("smf", 63.0, 121180.93934819671, 0.03372935676604411),
     ("lp01in", 65.0, 8653.66033852497, 0.03856626444678388),
     ("lp02in", 86.0, 7359.919109727068, 0.038377908183115886)),
    (("smf", 63.0, 55691.49640325843, 0.05369979792072121),
     ("lp01in", 65.0, 3524.082764758039, 0.058329540124477795),
     ("lp02in", 86.0, 3014.068366273371, 0.058149251187660164)),
    (("smf", 63.0, 206007.5968919344, 0.036729356766044115),
     ("lp01in", 65.0, 5192.1962031149815, 0.036566264446783875),
     ("lp02in", 86.0, 8831.902931672481, 0.03937790818311589)),
    (("fig4-full", 150.0, 17519.283711564698, 0.022333557013725695),
     ("fig4-power-fmf", 120.5, 28349.528534037283, 0.022635831208808008),
     ("lp02in", 60.0, 40697.885976991034, 0.025434721698278182),
     ("smf", 20.0, 1121154.4704129961, 0.02109514423436116)),
    (("fig4-full", 100.0, 179201.24655100307, 0.006180868044367455),),
    (("smf", 95.0, 54457.82471739417, 0.018996771375986408),
     ("lp01in", 97.0, 1219.1739546990375, 0.05494478067889063),
     ("lp02in", 105.0, 4616.883206563621, 0.03138509942208283)),
    (("smf", 130.0, 1000.0, 0.03), ("lp01in", 86.5, 100.0, 0.04),
     ("lp02in", 107.0, 500.0, 0.03)),
    (("lp01in", 87.0, 50.0, 0.05),),
)

# sha256 of repr(calibrate(...)) per entry of CALIBRATION_SETS
CALIBRATION_GOLDEN = (
    "87aa665ba027157d5e4072010b879f68b8fab6647c9ce18dfd388450642f9730",
    "332ff5d788a7d268c0017818c50bb784472e5f57d09f11277d8f2e5a2d4e10ae",
    "079ffdeed446fbae432ee9fcaccbd267f08e5932d4adc1cf8b58dc9b2dfad8ff",
    "1cc9bfcb6083cc8ac294c89017cf5646a4814d2090510b66247f67703e8a9e48",
    "ad186cb45de390817bf6b339997d126c5bde315fa98fafd75f2c1e2385a06303",
    "8eb499f00ed679a8543e0b9bd542dca321edc407fef922f38e246650e82c7d42",
    "cb09bc1d56d0ec83bbe1ce11458a5534deed05e9d7cc85a12ac96584dd3b245e",
    "365f3af4e23d802325e378905b2c47e6bd753c356211d1b56eba017fd60ba43f",
    "497721f91fed746ccbe251af5018684efed3e83a07ba8b6e57c22002394760d6",
    "88bb97f521b794426094e0c953265cae832948839c3f9fe0d0553e4042a51f32",
)
REFERENCE_GOLDEN = (
    "b71b21f5f6c24c45ff28af59651f008be16641679f7750bdf6da3e142896a024")
# CLI `calibrate` output on stdout, per --format
CLI_CALIBRATE_GOLDEN = {
    "text": "6fed47679eae2bf3a6fcd6a8fc611c6a565ecee04ee6c8c603d823fd4f977e19",
    "json": "6a83f6c2c3fa4eb33ca1285251dd5982cc469ee4532149e09416e06fc213e4fb",
}


def test_calibrate_reference_targets():
    report = calibrate([get_preset(n) for n, _ in REFERENCE_TARGETS],
                       [t for _, t in REFERENCE_TARGETS])
    assert _sha(repr(report)) == REFERENCE_GOLDEN


@pytest.mark.parametrize("index", range(len(CALIBRATION_SETS)))
def test_calibrate_synthetic_targets(index):
    targets = CALIBRATION_SETS[index]
    report = calibrate([get_preset(p) for p, *_ in targets],
                       [CalibrationTarget(*t) for _, *t in targets])
    assert _sha(repr(report)) == CALIBRATION_GOLDEN[index]


@pytest.mark.parametrize("fmt", sorted(CLI_CALIBRATE_GOLDEN))
def test_cli_calibrate(fmt, capsys):
    assert main(["calibrate", "--format", fmt]) == 0
    assert _sha(capsys.readouterr().out) == CLI_CALIBRATE_GOLDEN[fmt]


# CLI `max-distance` output on stdout, per preset, format and budget flag:
# (preset, format, --ignore-classical-budget) -> sha256
MAX_DISTANCE_GOLDEN = {
    ("smf", "text", False):
        "f2384e5eb9c37705aac07c304dbc378cb67d4d33795d22c1dad46a82ee0b7f91",
    ("smf", "text", True):
        "f2384e5eb9c37705aac07c304dbc378cb67d4d33795d22c1dad46a82ee0b7f91",
    ("smf", "json", False):
        "f716aed33ed7c515b8dee734911fe3a77321a414c8165f9222899c0db9831525",
    ("smf", "json", True):
        "f716aed33ed7c515b8dee734911fe3a77321a414c8165f9222899c0db9831525",
    ("lp01in", "text", False):
        "fcb6bf8673e8991ef99231f6b7a068b403ee1fd81574bb3894361e1455a8e3ae",
    ("lp01in", "text", True):
        "fcb6bf8673e8991ef99231f6b7a068b403ee1fd81574bb3894361e1455a8e3ae",
    ("lp01in", "json", False):
        "e12e7436a460af618eb7cce0be83ea4b8e6f08bce212822fad355c93d903ae40",
    ("lp01in", "json", True):
        "e12e7436a460af618eb7cce0be83ea4b8e6f08bce212822fad355c93d903ae40",
    ("lp02in", "text", False):
        "2af9db0f603c6d12fe153efdd064009dc7bdb15fd14a974bdf655273169d7dbf",
    ("lp02in", "text", True):
        "ee3ee69c51840f1078c91807c2d8cc809b1a2e03bccdc28b4ab1e56550b69601",
    ("lp02in", "json", False):
        "6e4471afbb08d078d238891bd21670757e8185e550e51434ced8f321ae4d02a6",
    ("lp02in", "json", True):
        "9254d8ff37c4faf1f306a46401e2300b08e28c3f4ee523e7e6c3a526dee07205",
    ("fig4-power", "text", False):
        "be451530fbfa1bd0ba767cc11066c5a6b11bdb1d6aaffdbff60b11763c7e4f4e",
    ("fig4-power", "text", True):
        "dad4414b51e572bba44de826b2668b4e7fb200b99e16cd8dbd48765809355163",
    ("fig4-power", "json", False):
        "514b17835027ff4214f0fead4f8c3a1fc6ab57faa557780c29aee742db7dc737",
    ("fig4-power", "json", True):
        "7bc02cd6f018ef652f734626df1d0c0c09f5ebdeea687ddba42c3f0a6e5da352",
    ("fig4-power-fmf", "text", False):
        "e569568e167d49236e5d21591b495e454a29ea5a71a55a39626281d2451b2308",
    ("fig4-power-fmf", "text", True):
        "e6e6dda8673b415675f021627f61e703df13b89b905e6f61732aae1187c9844b",
    ("fig4-power-fmf", "json", False):
        "1633cb1e60acbd4019ec63f1bf8b3175ffa5bb71c94a42ceaf867ff43d53c774",
    ("fig4-power-fmf", "json", True):
        "933770e249bf2902b1ea0028c32c8e4be203dd0b04bdcf85127e2c563daa377d",
    ("fig4-full", "text", False):
        "40407e3636eabf6a974b42c1769fecad97312f610db487ac77a18a0c50e726c7",
    ("fig4-full", "text", True):
        "cc3be10052c789573d00f86fc7e8cf9254815f5a95592868e9197f5402afc148",
    ("fig4-full", "json", False):
        "f25d4593c330a0e844b2e6c096fd7d492f1dc881fb84e385efc0b8ed93d4bd2c",
    ("fig4-full", "json", True):
        "fc3bf234899426df276660807f1072038a55abbc6f4eccb70c72d62231e5e92f",
}


def test_max_distance_covers_every_preset():
    assert sorted({p for p, _, _ in MAX_DISTANCE_GOLDEN}) == sorted(preset_names())


@pytest.mark.parametrize("preset, fmt, ignore_budget", sorted(MAX_DISTANCE_GOLDEN))
def test_cli_max_distance(preset, fmt, ignore_budget, capsys):
    flags = ["--ignore-classical-budget"] if ignore_budget else []
    assert main(["max-distance", "--preset", preset, "--format", fmt,
                 *flags]) == 0
    assert (_sha(capsys.readouterr().out)
            == MAX_DISTANCE_GOLDEN[preset, fmt, ignore_budget])


# The Fig. 4 cliffs those digests hold, as readable numbers: each preset's
# max secure distance in km as the CLI prints it (`f"{distance_km:.2f}"`),
# with the classical budget on and then off.
FIG4_CLIFFS = {
    "smf": ("140.45", "140.45"),
    "lp01in": ("88.20", "88.20"),
    "lp02in": ("91.44", "110.86"),
    "fig4-power": ("91.44", "110.86"),
    "fig4-power-fmf": ("179.09", "179.42"),
    "fig4-full": ("179.09", "212.51"),
}


def test_fig4_cliffs_cover_every_preset():
    assert sorted(FIG4_CLIFFS) == sorted(preset_names())


@pytest.mark.parametrize("preset", sorted(FIG4_CLIFFS))
def test_fig4_cliff_table(preset):
    scenario = get_preset(preset)
    cliffs = [max_secure_distance(scenario, require_classical_feasible=budget)
              for budget in (True, False)]
    assert tuple(f"{c.distance_km:.2f}" for c in cliffs) == FIG4_CLIFFS[preset]


# `max-distance --from-km A --to-km B`, indexed below as
# (preset, --ignore-classical-budget, index into MAX_DISTANCE_RANGES).
MAX_DISTANCE_RANGES = (
    ("0.5", "300.5"), ("7.25", "307.25"), ("19.6", "319.6"), ("33.3", "333.3"),
    ("0.4", "80.55"), ("42", "42"), ("85", "95"), ("100.5", "200"),
    ("250", "260"),
)
# sha256 over both formats (text, then JSON) of
# "<exit code>\n<stdout>\0<stderr>"
MAX_DISTANCE_RANGE_GOLDEN = {
    ("fig4-full", False, 0):
        "1cc9e614e349e7b5cb0bbe7fba0c202097a65f2ca3257f21d1efd5483fa71249",
    ("fig4-full", False, 1):
        "1cc9e614e349e7b5cb0bbe7fba0c202097a65f2ca3257f21d1efd5483fa71249",
    ("fig4-full", False, 2):
        "0ef438691e65e5fd655c726c5a6e382ef26e554eab1b8576766f0f464bfd9fc4",
    ("fig4-full", False, 3):
        "48795d0da2f9e2452e912b85ae2bf5d89a20efda974c2fcb38cefcaec7f23d83",
    ("fig4-full", False, 4):
        "e6618ea2ce41abccb7c1449c4892aa2c0628077417e5cc94f80dabeb72e8ae57",
    ("fig4-full", False, 5):
        "4f91a9a2c64802ba6b560c57303be4070a7478356a6b176fc906374090435e35",
    ("fig4-full", False, 6):
        "3208615783fa8665226d2b7daa1c35338637ebaf0833c58fb624e0dd60124a91",
    ("fig4-full", False, 7):
        "1cc9e614e349e7b5cb0bbe7fba0c202097a65f2ca3257f21d1efd5483fa71249",
    ("fig4-full", False, 8):
        "983156ec6263f0265caae4f164fb43da525cfed192fd4e45952fa8d599694889",
    ("fig4-full", True, 0):
        "6ea5c61bb46c3a5a7c410ad2ed24afd85f847d77a7348706bef245196b6e86f3",
    ("fig4-full", True, 1):
        "6ea5c61bb46c3a5a7c410ad2ed24afd85f847d77a7348706bef245196b6e86f3",
    ("fig4-full", True, 2):
        "8774793390b587a4ac204f05ce6f493b500f9b0bb1454d7e139f6608bf9a82b1",
    ("fig4-full", True, 3):
        "88302f682821a22c27059831c3804a5ff68da4c62c7b0327b71db0a1622689ba",
    ("fig4-full", True, 4):
        "e6618ea2ce41abccb7c1449c4892aa2c0628077417e5cc94f80dabeb72e8ae57",
    ("fig4-full", True, 5):
        "4f91a9a2c64802ba6b560c57303be4070a7478356a6b176fc906374090435e35",
    ("fig4-full", True, 6):
        "3208615783fa8665226d2b7daa1c35338637ebaf0833c58fb624e0dd60124a91",
    ("fig4-full", True, 7):
        "bdfd2b2d1e7ab57cad323dfd4b6d44b1810e52bb13c6ee8b702761ed8e8307c8",
    ("fig4-full", True, 8):
        "983156ec6263f0265caae4f164fb43da525cfed192fd4e45952fa8d599694889",
    ("fig4-power", False, 0):
        "da7afc56e8ae70dde8f8bbf965d1440bf7219431c214419d3fc6e94a73792386",
    ("fig4-power", False, 1):
        "da7afc56e8ae70dde8f8bbf965d1440bf7219431c214419d3fc6e94a73792386",
    ("fig4-power", False, 2):
        "c9586848fd50fd0d039671f0591e744b641317b92afa766ef656f205467d64d3",
    ("fig4-power", False, 3):
        "0e551f26b47ff7675fb155ba591f5fa0ee91cb89fc81b588c04386304eca0ba5",
    ("fig4-power", False, 4):
        "28378987b5b0010fec591219f5795160830aea380494258aff9459d36040efea",
    ("fig4-power", False, 5):
        "3ef26125596aa9f0d9ee8ef51c2fe1b0e901efdc34222a64288adbeb056e9e75",
    ("fig4-power", False, 6):
        "da7afc56e8ae70dde8f8bbf965d1440bf7219431c214419d3fc6e94a73792386",
    ("fig4-power", False, 7):
        "f0bf1805c88cfce339ed1173d4ed9e3471c61ef36cb8e9700ce3d9056f4443a4",
    ("fig4-power", False, 8):
        "983156ec6263f0265caae4f164fb43da525cfed192fd4e45952fa8d599694889",
    ("fig4-power", True, 0):
        "7f05977ed7993e64f949a9e8adf179cedadccf3e144f9eb8a654cb3c58153858",
    ("fig4-power", True, 1):
        "7f05977ed7993e64f949a9e8adf179cedadccf3e144f9eb8a654cb3c58153858",
    ("fig4-power", True, 2):
        "265700906c78d6262d93ce990139c19e5ba9231efd8ac04be942e7d57ff66606",
    ("fig4-power", True, 3):
        "cc2a520ac265b3578b748e4fe1903019cd4bd16f940d0c462a2e28170e857043",
    ("fig4-power", True, 4):
        "28378987b5b0010fec591219f5795160830aea380494258aff9459d36040efea",
    ("fig4-power", True, 5):
        "3ef26125596aa9f0d9ee8ef51c2fe1b0e901efdc34222a64288adbeb056e9e75",
    ("fig4-power", True, 6):
        "15ab84fd72887794dfc80f813c451f030e47128159d8f1a25c615496cc24f368",
    ("fig4-power", True, 7):
        "7f05977ed7993e64f949a9e8adf179cedadccf3e144f9eb8a654cb3c58153858",
    ("fig4-power", True, 8):
        "983156ec6263f0265caae4f164fb43da525cfed192fd4e45952fa8d599694889",
    ("fig4-power-fmf", False, 0):
        "fda9cfc16c120f27ada3a425742e990744d0cfd0ec92676bffb83d1b10fdad28",
    ("fig4-power-fmf", False, 1):
        "fda9cfc16c120f27ada3a425742e990744d0cfd0ec92676bffb83d1b10fdad28",
    ("fig4-power-fmf", False, 2):
        "cf9183f95e94a353167fd9bf136d6a16d230a56a2bea1ae894d11f9fd89e3077",
    ("fig4-power-fmf", False, 3):
        "283f69bbdd107f2cd99e90c9ff45868dd83f214290bc7872f88de79b1d16c404",
    ("fig4-power-fmf", False, 4):
        "3ab38fe35e7f1f0b7cb2e00e91f22ab1b0cf81aa7c6bc644a78f0fba65c62091",
    ("fig4-power-fmf", False, 5):
        "ab138f0e002dde6f1ddd8029603117b944d9d3a1066f869fd65d9fbe15e26c3d",
    ("fig4-power-fmf", False, 6):
        "c05eb5521b3c705173ac42805e14ead6b790858eb6f8ed37e6937040573166b3",
    ("fig4-power-fmf", False, 7):
        "fda9cfc16c120f27ada3a425742e990744d0cfd0ec92676bffb83d1b10fdad28",
    ("fig4-power-fmf", False, 8):
        "983156ec6263f0265caae4f164fb43da525cfed192fd4e45952fa8d599694889",
    ("fig4-power-fmf", True, 0):
        "e2ed00703d0271a5e556fb6fcc8800b6ef6b76311ab18a0ab45e2e667a011d0c",
    ("fig4-power-fmf", True, 1):
        "e2ed00703d0271a5e556fb6fcc8800b6ef6b76311ab18a0ab45e2e667a011d0c",
    ("fig4-power-fmf", True, 2):
        "90cb3f1394219ea96f91c79f8e67e86f145b9f881eb44145f903855300dc0e53",
    ("fig4-power-fmf", True, 3):
        "2129c9cfaad33ba8203c1fb04d980d4e64efa223f05dc965236277f3f5a70934",
    ("fig4-power-fmf", True, 4):
        "3ab38fe35e7f1f0b7cb2e00e91f22ab1b0cf81aa7c6bc644a78f0fba65c62091",
    ("fig4-power-fmf", True, 5):
        "ab138f0e002dde6f1ddd8029603117b944d9d3a1066f869fd65d9fbe15e26c3d",
    ("fig4-power-fmf", True, 6):
        "c05eb5521b3c705173ac42805e14ead6b790858eb6f8ed37e6937040573166b3",
    ("fig4-power-fmf", True, 7):
        "e2ed00703d0271a5e556fb6fcc8800b6ef6b76311ab18a0ab45e2e667a011d0c",
    ("fig4-power-fmf", True, 8):
        "983156ec6263f0265caae4f164fb43da525cfed192fd4e45952fa8d599694889",
    ("lp01in", False, 0):
        "49781a1fb87fcfe69d0789bf414f8db0ba155410a40ec7474e5880e700f72483",
    ("lp01in", False, 1):
        "49781a1fb87fcfe69d0789bf414f8db0ba155410a40ec7474e5880e700f72483",
    ("lp01in", False, 2):
        "dd024c60debb4312c1ff8dc1792e88dbc789b3f9bc8b62cf8b9210dddc8dd73f",
    ("lp01in", False, 3):
        "5822f3c06ee91b533bfde0789858ab32320faa1457b65ff2ba215c38e746659a",
    ("lp01in", False, 4):
        "b5b9aaaa0e39b22c5ee0930a88a5deff580adbd6bc453548a81dc5b9dd8f54b7",
    ("lp01in", False, 5):
        "54bcaeec94b97624dd98997e383fce92303cb65a06bc2c58f4724a9c8d3afa54",
    ("lp01in", False, 6):
        "49781a1fb87fcfe69d0789bf414f8db0ba155410a40ec7474e5880e700f72483",
    ("lp01in", False, 7):
        "f0bf1805c88cfce339ed1173d4ed9e3471c61ef36cb8e9700ce3d9056f4443a4",
    ("lp01in", False, 8):
        "983156ec6263f0265caae4f164fb43da525cfed192fd4e45952fa8d599694889",
    ("lp01in", True, 0):
        "49781a1fb87fcfe69d0789bf414f8db0ba155410a40ec7474e5880e700f72483",
    ("lp01in", True, 1):
        "49781a1fb87fcfe69d0789bf414f8db0ba155410a40ec7474e5880e700f72483",
    ("lp01in", True, 2):
        "dd024c60debb4312c1ff8dc1792e88dbc789b3f9bc8b62cf8b9210dddc8dd73f",
    ("lp01in", True, 3):
        "5822f3c06ee91b533bfde0789858ab32320faa1457b65ff2ba215c38e746659a",
    ("lp01in", True, 4):
        "b5b9aaaa0e39b22c5ee0930a88a5deff580adbd6bc453548a81dc5b9dd8f54b7",
    ("lp01in", True, 5):
        "54bcaeec94b97624dd98997e383fce92303cb65a06bc2c58f4724a9c8d3afa54",
    ("lp01in", True, 6):
        "49781a1fb87fcfe69d0789bf414f8db0ba155410a40ec7474e5880e700f72483",
    ("lp01in", True, 7):
        "f0bf1805c88cfce339ed1173d4ed9e3471c61ef36cb8e9700ce3d9056f4443a4",
    ("lp01in", True, 8):
        "983156ec6263f0265caae4f164fb43da525cfed192fd4e45952fa8d599694889",
    ("lp02in", False, 0):
        "04e65c4ae1b9a1a4745e9e639853cdcaebb45c09ca96753fd05d86e2c3df4a23",
    ("lp02in", False, 1):
        "04e65c4ae1b9a1a4745e9e639853cdcaebb45c09ca96753fd05d86e2c3df4a23",
    ("lp02in", False, 2):
        "74ed12dbf3aaa2433068a62ccbc843bae3553fbe80212f1bf6b4c79ee92d99c8",
    ("lp02in", False, 3):
        "168130eb85d6526b8db793632d42e6270334fad103612bcf0ec7c9c224f041a6",
    ("lp02in", False, 4):
        "f95f0d3fea67aee461ee64d4c6c442fc23724717b86bc95ee879dfa81a0865ac",
    ("lp02in", False, 5):
        "59237d4d562b1339eb56fa40323046b486ef1aa15b9e049a735f25059f929345",
    ("lp02in", False, 6):
        "04e65c4ae1b9a1a4745e9e639853cdcaebb45c09ca96753fd05d86e2c3df4a23",
    ("lp02in", False, 7):
        "f0bf1805c88cfce339ed1173d4ed9e3471c61ef36cb8e9700ce3d9056f4443a4",
    ("lp02in", False, 8):
        "983156ec6263f0265caae4f164fb43da525cfed192fd4e45952fa8d599694889",
    ("lp02in", True, 0):
        "c9c877d11b2d646978e3cf11052401da406eae09f031f0e6c81c0407b64c6e56",
    ("lp02in", True, 1):
        "c9c877d11b2d646978e3cf11052401da406eae09f031f0e6c81c0407b64c6e56",
    ("lp02in", True, 2):
        "fe13f2e8b0a0897071d20c6aee796fbecfbce90e08da13095381bb4118825116",
    ("lp02in", True, 3):
        "e14881d7a78f6e38a6c1ed2a62f8580cbee54008a89d941864ae32267187b9cc",
    ("lp02in", True, 4):
        "f95f0d3fea67aee461ee64d4c6c442fc23724717b86bc95ee879dfa81a0865ac",
    ("lp02in", True, 5):
        "59237d4d562b1339eb56fa40323046b486ef1aa15b9e049a735f25059f929345",
    ("lp02in", True, 6):
        "cd2c7d6e3e032aab1362d0feca0cd734b36fb116027288585a69de49e4aaaec4",
    ("lp02in", True, 7):
        "c9c877d11b2d646978e3cf11052401da406eae09f031f0e6c81c0407b64c6e56",
    ("lp02in", True, 8):
        "983156ec6263f0265caae4f164fb43da525cfed192fd4e45952fa8d599694889",
    ("smf", False, 0):
        "78ac85615b930f80ebbfb1ce1433223dcd1d54e7658f248004bd41b98579cb95",
    ("smf", False, 1):
        "78ac85615b930f80ebbfb1ce1433223dcd1d54e7658f248004bd41b98579cb95",
    ("smf", False, 2):
        "12342a566207b61f0dd3353b4fdd56c6da2816bb3c020b28c8f425cbf543e95d",
    ("smf", False, 3):
        "e21d9613df5565ad1fc7c2e5cc0bebb35b5c75099914b4ee32d6d650706f8844",
    ("smf", False, 4):
        "3727f59a10545ded39332cfc9f509eb8fb36d89755ccb96c3ff66c7a459b423e",
    ("smf", False, 5):
        "a2708ddd22b197cf6dcbd5666a9926a2561f6f40d3f8ef3703fefc01555e089f",
    ("smf", False, 6):
        "53f61d2552885865aea0630f60f32578e2ba85239f810c9133cdba9e31cb1c3d",
    ("smf", False, 7):
        "78ac85615b930f80ebbfb1ce1433223dcd1d54e7658f248004bd41b98579cb95",
    ("smf", False, 8):
        "983156ec6263f0265caae4f164fb43da525cfed192fd4e45952fa8d599694889",
    ("smf", True, 0):
        "78ac85615b930f80ebbfb1ce1433223dcd1d54e7658f248004bd41b98579cb95",
    ("smf", True, 1):
        "78ac85615b930f80ebbfb1ce1433223dcd1d54e7658f248004bd41b98579cb95",
    ("smf", True, 2):
        "12342a566207b61f0dd3353b4fdd56c6da2816bb3c020b28c8f425cbf543e95d",
    ("smf", True, 3):
        "e21d9613df5565ad1fc7c2e5cc0bebb35b5c75099914b4ee32d6d650706f8844",
    ("smf", True, 4):
        "3727f59a10545ded39332cfc9f509eb8fb36d89755ccb96c3ff66c7a459b423e",
    ("smf", True, 5):
        "a2708ddd22b197cf6dcbd5666a9926a2561f6f40d3f8ef3703fefc01555e089f",
    ("smf", True, 6):
        "53f61d2552885865aea0630f60f32578e2ba85239f810c9133cdba9e31cb1c3d",
    ("smf", True, 7):
        "78ac85615b930f80ebbfb1ce1433223dcd1d54e7658f248004bd41b98579cb95",
    ("smf", True, 8):
        "983156ec6263f0265caae4f164fb43da525cfed192fd4e45952fa8d599694889",
}


def test_max_distance_ranges_cover_every_case():
    assert sorted(MAX_DISTANCE_RANGE_GOLDEN) == sorted(
        (p, ignore, i) for p in preset_names() for ignore in (False, True)
        for i in range(len(MAX_DISTANCE_RANGES)))


@pytest.mark.parametrize("preset, ignore_budget, index",
                         sorted(MAX_DISTANCE_RANGE_GOLDEN))
def test_cli_max_distance_ranges(preset, ignore_budget, index, capsys):
    from_km, to_km = MAX_DISTANCE_RANGES[index]
    flags = ["--ignore-classical-budget"] if ignore_budget else []
    record = ""
    for fmt in ("text", "json"):
        code = main(["max-distance", "--preset", preset, "--from-km", from_km,
                     "--to-km", to_km, "--format", fmt, *flags])
        captured = capsys.readouterr()
        record += f"{code}\n{captured.out}\0{captured.err}"
    assert (_sha(record)
            == MAX_DISTANCE_RANGE_GOLDEN[preset, ignore_budget, index])
