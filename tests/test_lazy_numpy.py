"""numpy, the INI reader and csv load only where they are used, and
dataclasses and inspect nowhere.

The CSV float formatter is the package's one use of numpy; `qkdcoex.config`
(and with it configparser) reads `--scenario` files and `load_scenario`;
`csv` reads `fit-raman` measurements. The records are made without
`dataclasses`, so no verb loads it, nor the `inspect` chain (`ast`, `dis`,
`tokenize`) that it imports, except through numpy. Each test runs in a
fresh interpreter, because this process has imported all of them long
before (the other tests use them), and reports which of them the child
ended with.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from test_config import MANDATORY
from test_golden import GOLDEN, GRID

SRC = Path(__file__).resolve().parent.parent / "src"

# Modules a process should load only for the verbs that need them.
WATCHED = ("numpy", "configparser", "qkdcoex.config", "csv", "dataclasses",
           "inspect", "ast", "dis", "tokenize")

PRELUDE = f"""
import sys
WATCHED = {WATCHED!r}
at_start = [m for m in WATCHED if m in sys.modules]
"""

CHILD = PRELUDE + """
import contextlib, io, json
import qkdcoex
from qkdcoex import cli
verbs = json.loads(sys.argv[1])
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in verbs:
        codes.append(cli.main(argv))
print(json.dumps({"codes": codes, "at_start": at_start,
                  "loaded": [m for m in WATCHED if m in sys.modules]}))
"""


def _python(code, *args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def _run(*verbs):
    """Exit codes of the verbs run in turn in one fresh interpreter, and
    which of WATCHED it holds at the end; none may be there at its start."""
    result = _python(CHILD, json.dumps(verbs))
    assert result.pop("at_start") == []
    return result


def test_cold_import_loads_none():
    assert _run() == {"codes": [], "loaded": []}


def test_numpy_free_verbs():
    assert _run(
        ["max-distance", "--preset", "smf"],
        ["sweep", "--preset", "lp02in", "--from-km", "0", "--to-km", "10",
         "--step-km", "1", "--format", "json"],
        ["calibrate"],
    ) == {"codes": [0, 0, 0], "loaded": []}


def test_csv_sweep_loads_numpy(tmp_path):
    # Positive control: the same harness sees numpy once CSV is written,
    # and the lazily resolved formatter gives the golden bytes. Whatever
    # numpy imports itself (numpy 2 loads the inspect chain) comes with it,
    # and nothing else.
    numpy_own = _python(PRELUDE + """
import json, numpy
print(json.dumps([m for m in WATCHED if m in sys.modules]))
""")
    assert numpy_own[0] == "numpy"
    assert set(numpy_own) <= {"numpy", "inspect", "ast", "dis", "tokenize"}
    out = tmp_path / "rows.csv"
    assert _run(
        ["max-distance", "--preset", "smf"],
        ["sweep", "--preset", "smf", "--from-km", GRID[0], "--to-km", GRID[1],
         "--step-km", GRID[2], "--out", str(out)],
    ) == {"codes": [0, 0], "loaded": numpy_own}
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN["smf"][0]


def test_scenario_sweep_loads_config(tmp_path):
    # An INI of the smf preset's values, named after it, sweeps to the
    # preset's golden bytes; reading it loads the INI reader.
    ini = tmp_path / "smf.ini"
    ini.write_text(MANDATORY["smf"], encoding="utf-8")
    grid = ["--from-km", GRID[0], "--to-km", GRID[1], "--step-km", GRID[2],
            "--format", "json"]
    by_preset, by_file = tmp_path / "preset.json", tmp_path / "file.json"
    assert _run(
        ["sweep", "--preset", "smf", *grid, "--out", str(by_preset)],
        ["sweep", "--scenario", str(ini), *grid, "--out", str(by_file)],
    ) == {"codes": [0, 0], "loaded": ["configparser", "qkdcoex.config"]}
    assert by_file.read_bytes() == by_preset.read_bytes()
    assert hashlib.sha256(by_file.read_bytes()).hexdigest() == GOLDEN["smf"][1]


def test_fit_raman_loads_csv(tmp_path):
    measurements = tmp_path / "noise.csv"
    measurements.write_text(
        "distance_km,power_mw,rate_cps\n10,0.5,9000\n25,0.5,13000\n",
        encoding="utf-8")
    assert _run(
        ["fit-raman", "--measurements", str(measurements),
         "--alpha-db-per-km", "0.2"],
    ) == {"codes": [0], "loaded": ["csv"]}


def test_load_scenario_resolves_on_first_use(tmp_path):
    ini = tmp_path / "smf.ini"
    ini.write_text(MANDATORY["smf"], encoding="utf-8")
    result = _python(PRELUDE + """
import json
import qkdcoex
listed = "load_scenario" in dir(qkdcoex) and "load_scenario" in qkdcoex.__all__
after_import = [m for m in WATCHED if m in sys.modules]
from qkdcoex import load_scenario
namespace = {}
exec("from qkdcoex import *", namespace)
print(json.dumps({
    "at_start": at_start, "after_import": after_import, "listed": listed,
    "same": qkdcoex.load_scenario is load_scenario is namespace["load_scenario"],
    "preset": load_scenario(sys.argv[1]) == qkdcoex.get_preset("smf"),
    "missing": getattr(qkdcoex, "no_such_name", None) is None,
    "loaded": [m for m in WATCHED if m in sys.modules]}))
""", str(ini))
    assert result == {"at_start": [], "after_import": [], "listed": True,
                      "same": True, "preset": True, "missing": True,
                      "loaded": ["configparser", "qkdcoex.config"]}
