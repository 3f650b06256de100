"""numpy is loaded only when CSV is written.

The CSV float formatter is the package's one use of numpy. Each test runs
the CLI verbs through `cli.main` in a fresh interpreter, because this
process has imported numpy long before (the other tests use it), and
reports which modules the child ended with.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from test_golden import GOLDEN, GRID

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = """
import contextlib, io, json, sys
from qkdcoex import cli
verbs = json.loads(sys.argv[1])
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in verbs:
        codes.append(cli.main(argv))
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules}))
"""


def _run(*verbs):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(verbs)],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_numpy_free_verbs():
    assert _run(
        ["max-distance", "--preset", "smf"],
        ["sweep", "--preset", "lp02in", "--from-km", "0", "--to-km", "10",
         "--step-km", "1", "--format", "json"],
        ["calibrate"],
    ) == {"codes": [0, 0, 0], "numpy": False}


def test_csv_sweep_loads_numpy(tmp_path):
    # Positive control: the same harness sees numpy once CSV is written,
    # and the lazily resolved formatter gives the golden bytes.
    out = tmp_path / "rows.csv"
    assert _run(
        ["max-distance", "--preset", "smf"],
        ["sweep", "--preset", "smf", "--from-km", GRID[0], "--to-km", GRID[1],
         "--step-km", GRID[2], "--out", str(out)],
    ) == {"codes": [0, 0], "numpy": True}
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN["smf"][0]
