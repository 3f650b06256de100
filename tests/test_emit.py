"""Result emission: the column-wise, chunked writers against the per-row
formatters they replaced, and the CLI's writing contract.

The oracle below is the earlier emitter, kept as the reference: every value
through `np.format_float_scientific(v, unique=True)` for CSV, and
`json.dumps(payload, indent=2) + "\\n"` for JSON.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from array import array
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qkdcoex import scenario
from qkdcoex.cli import main
from qkdcoex.errors import ComputationError, ConfigError, DomainError
from qkdcoex.scenario import (RESULT_FIELDS, ResultRow, SweepSpec,
                              _chunks, _sweep_table, emit_results,
                              evaluate_at, rows_to_csv, rows_to_json,
                              run_sweep)
from qkdcoex.presets import get_preset

CORPUS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
          2.225073858507201e-308, 1e-300, -1e-300, 1e300, -1e300,
          1.7976931348623157e308, 1.0, 2.0, -3.0, 1e16, 123456789.0, 0.1,
          0.5, 9.999999999999999e-01, float("nan"), float("inf"),
          float("-inf"), 0, 7, -12, 2**53]


def _oracle_fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return np.format_float_scientific(value, unique=True)


def oracle_csv(rows) -> str:
    lines = [",".join(RESULT_FIELDS)]
    for row in rows:
        lines.append(",".join(_oracle_fmt(getattr(row, f))
                              for f in RESULT_FIELDS))
    return "\n".join(lines) + "\n"


def oracle_json(rows) -> str:
    payload = [{f: getattr(row, f) for f in RESULT_FIELDS} for row in rows]
    return json.dumps(payload, indent=2) + "\n"


numbers = st.one_of(
    st.sampled_from(CORPUS),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-1e18, max_value=1e18).map(float.__floor__).map(float),
    st.integers(-2**53, 2**53),
)
result_rows = st.builds(ResultRow, *[numbers] * 11, st.booleans())


@given(rows=st.lists(result_rows, max_size=12),
       chunk=st.sampled_from([1, 3, 4096]))
def test_emitters_match_oracle(rows, chunk):
    # Small chunks put chunk joins, and non-finite values, between chunks.
    with mock.patch.object(scenario, "_CHUNK_ROWS", chunk):
        assert rows_to_csv(rows) == oracle_csv(rows)
        assert rows_to_json(rows) == oracle_json(rows)


def test_finite_numpy_scalars_match_oracle():
    rows = [ResultRow(*map(np.float64, CORPUS[:11]), True),
            ResultRow(*map(np.float64, CORPUS[8:19]), False)]
    assert all(map(np.isfinite, CORPUS[:19]))
    assert rows_to_csv(rows) == oracle_csv(rows)
    assert rows_to_json(rows) == oracle_json(rows)


@pytest.mark.parametrize("preset", ["smf", "fig4-full"])
def test_integer_distance_grid_matches_oracle(preset):
    rows = run_sweep(get_preset(preset), SweepSpec(0, 300, 7))
    assert type(rows[0].distance_km) is int
    assert rows_to_csv(rows) == oracle_csv(rows)
    assert rows_to_json(rows) == oracle_json(rows)


@pytest.mark.parametrize("preset", ["smf", "fig4-full"])
def test_integer_launch_cap_matches_oracle(preset):
    # fig4-full is adaptive: its launch column mixes float floors and the
    # int cap, so it stays a tuple of both.
    scen = replace(get_preset(preset), classical_launch_power_dbm=-3)
    rows = run_sweep(scen, SweepSpec(0, 300, 7))
    assert type(rows[0].distance_km) is int
    assert int in {type(row.launch_power_dbm) for row in rows}
    assert rows_to_csv(rows) == oracle_csv(rows)
    assert rows_to_json(rows) == oracle_json(rows)


def _huge_int_rows():
    # An int that no float holds, in one row next to an ordinary one.
    row = evaluate_at(get_preset("smf"), 10.0)
    return [row, replace(row, srs_rate_cps=2**1100)]


@pytest.mark.parametrize("chunk", [1, 256])
def test_int_beyond_float_range_json_matches_oracle(chunk, tmp_path):
    rows = _huge_int_rows()
    with mock.patch.object(scenario, "_CHUNK_ROWS", chunk):
        assert rows_to_json(rows) == oracle_json(rows)
        emit_results(rows, "json", tmp_path / "out.json")
    assert (tmp_path / "out.json").read_text() == oracle_json(rows)


def test_int_beyond_float_range_csv_names_field():
    with pytest.raises(DomainError, match="^result srs_rate_cps is too large "
                                          "to convert to a float$"):
        rows_to_csv(_huge_int_rows())


def _feasibility_rows(value):
    # A feasibility that is no bool, in one row next to an ordinary one.
    row = evaluate_at(get_preset("smf"), 10.0)
    return [row, replace(row, classical_feasible=value)]


def _emitted(rows, fmt, via, path):
    """The text of `rows` from `rows_to_<fmt>`, or from `emit_results` to
    `path`, which holds other bytes before."""
    if via == "rows_to":
        return {"csv": rows_to_csv, "json": rows_to_json}[fmt](rows)
    path.write_text("earlier bytes\n")
    emit_results(rows, fmt, path)
    return path.read_text()


_FEASIBILITY = [2, None, 1, 0, 1.0]


@pytest.mark.parametrize("value", _FEASIBILITY, ids=repr)
@pytest.mark.parametrize("via", ["rows_to", "emit_results"])
def test_feasibility_no_bool_json_matches_oracle(value, via, tmp_path):
    # json writes the value as it is: 1, 0 and 1.0 are no `true`/`false`.
    rows = _feasibility_rows(value)
    assert _emitted(rows, "json", via, tmp_path / "out") == oracle_json(rows)


@pytest.mark.parametrize("value", _FEASIBILITY, ids=repr)
@pytest.mark.parametrize("via", ["rows_to", "emit_results"])
def test_feasibility_no_bool_csv(value, via, tmp_path):
    # 1, 0 and 1.0 equal a bool and keep its spelling; any other value is
    # refused, naming the field, and an output file keeps its bytes.
    path, rows = tmp_path / "out", _feasibility_rows(value)
    if value in (0, 1):
        expected = rows_to_csv(_feasibility_rows(bool(value)))
        assert _emitted(rows, "csv", via, path) == expected
        return
    with pytest.raises(DomainError) as exc:
        _emitted(rows, "csv", via, path)
    assert str(exc.value) == (f"result classical_feasible must be a bool, "
                              f"got {value!r}")
    if via == "emit_results":
        assert path.read_text() == "earlier bytes\n"


@pytest.mark.parametrize("existing", [False, True])
@pytest.mark.parametrize("fmt, error", [("csv", DomainError),
                                        ("xml", ConfigError)])
def test_package_error_leaves_path_as_it_was(existing, fmt, error, tmp_path):
    # A CSV value out of float range is found while formatting; the text is
    # formatted before the path is opened, so nothing is created, truncated
    # or partly written.
    path = tmp_path / "rows.out"
    if existing:
        path.write_bytes(b"earlier bytes\n")
    with pytest.raises(error):
        emit_results(_huge_int_rows(), fmt, path)
    if existing:
        assert path.read_bytes() == b"earlier bytes\n"
    else:
        assert not path.exists()


def test_float_columns_are_unboxed():
    table = _sweep_table(get_preset("fig4-full"), SweepSpec(0.0, 300.0, 1.0))
    for *numbers, feasible in table:
        assert all(type(col) is array and col.typecode == "d"
                   for col in numbers)
        assert type(feasible) is tuple
    int_grid = _sweep_table(get_preset("smf"), SweepSpec(0, 300, 7))
    assert [type(col) for col in int_grid[0]] == [tuple] + [array] * 10 + [tuple]


@pytest.mark.parametrize("chunk", [1, 3, 256])
def test_sweep_chunks_match_row_oracle(chunk):
    scen, sweep = get_preset("fig4-full"), SweepSpec(0.0, 300.0, 1.0)
    rows = [evaluate_at(scen, d) for d in sweep.distances()]
    with mock.patch.object(scenario, "_CHUNK_ROWS", chunk):
        table = _sweep_table(scen, sweep)
        assert "".join(_chunks(table, "csv")) == oracle_csv(rows)
        assert "".join(_chunks(table, "json")) == oracle_json(rows)


def test_dense_sweep_memory():
    # The paper's dense Fig. 4 sweep, 30,001 rows: the table holds its floats
    # unboxed, about 90 B a row, building it holds one chunk's distances, and
    # writing it holds one chunk's strings.
    scenario._scientific()   # numpy is imported before tracing
    scen, sweep = get_preset("fig4-full"), SweepSpec(0.0, 300.0, 0.01)
    tracemalloc.start()
    try:
        table = _sweep_table(scen, sweep)
        held, built = tracemalloc.get_traced_memory()
        emitted, lines = {}, 0
        for fmt in ("csv", "json"):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            for piece in _chunks(table, fmt):
                if fmt == "csv":
                    lines += piece.count("\n")
            emitted[fmt] = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert lines == 30_002
    assert held <= 4e6 and built <= 3.5e6
    assert emitted["csv"] <= 1e6 and emitted["json"] <= 1e6


# The same sweep through `main` to an --out file, in a fresh interpreter
# that has imported numpy: peak RSS counts what tracemalloc does not see
# (numpy's formatter, the file buffer, allocator slack). The child prints
# its exit code and the growth of its peak RSS in KiB. The peak is VmHWM,
# the high-water mark of the child's own memory map: a child's ru_maxrss
# starts at its parent's peak on Linux, so it would read 0 under pytest.
_DENSE_SWEEP = """
import sys
from qkdcoex.cli import main
from qkdcoex.scenario import _scientific

def peak_kib():
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(line.split()[1]) for line in fh
                    if line.startswith("VmHWM:"))

_scientific()
before = peak_kib()
code = main(["sweep", "--preset", "fig4-full", "--to-km", "300",
             "--step-km", "0.01", "--out", sys.argv[1]])
print(code, peak_kib() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs /proc/self/status (Linux)")
def test_dense_sweep_peak_rss(tmp_path):
    out = tmp_path / "dense.csv"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.run([sys.executable, "-c", _DENSE_SWEEP, str(out)],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    code, grown_kib = map(int, proc.stdout.split())
    assert code == 0
    assert grown_kib <= 12 * 1024
    with open(out, encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == 30_002


@given(value=st.one_of(st.sampled_from(CORPUS),
                       st.floats(allow_nan=True, allow_infinity=True)))
def test_resolved_formatter_matches_public(value):
    assert (scenario._scientific()(value, unique=True)
            == np.format_float_scientific(value, unique=True))


def test_private_formatter_resolved():
    assert scenario._scientific().__name__ == "dragon4_scientific"


def test_formatter_falls_back_to_public():
    with mock.patch("importlib.import_module", side_effect=ImportError):
        assert scenario._scientific.__wrapped__() is np.format_float_scientific


def test_unknown_format_creates_no_file(tmp_path):
    path = tmp_path / "rows.xml"
    rows = run_sweep(get_preset("smf"), SweepSpec(0.0, 2.0, 1.0))
    with pytest.raises(ConfigError, match="unknown output format"):
        emit_results(rows, "xml", path)
    assert not path.exists()


def test_unopenable_path_creates_nothing(tmp_path):
    path = tmp_path / "missing" / "rows.csv"
    rows = run_sweep(get_preset("smf"), SweepSpec(0.0, 2.0, 1.0))
    with pytest.raises(ConfigError, match="cannot write results"):
        emit_results(rows, "csv", path)
    assert list(tmp_path.iterdir()) == []


# /dev/full opens, and every write to it fails with ENOSPC.
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_write_error_is_a_computation_error():
    rows = run_sweep(get_preset("smf"), SweepSpec(0.0, 2.0, 1.0))
    with pytest.raises(ComputationError, match="cannot write results"):
        emit_results(rows, "csv", "/dev/full")


def test_failed_sweep_leaves_no_file(tmp_path, capsys):
    ini = tmp_path / "overflow.ini"
    ini.write_text("[fiber]\nkind = smf\nscheme = smf\n"
                   "attenuation_quantum_db_per_km = 0.190\n"
                   "attenuation_classical_db_per_km = 0.192\n"
                   "[components]\nmux_il_db = 0.49\ndemux_il_db = 0.36\n"
                   "[raman]\ncoefficient_cps_per_mw_km = 12076\n"
                   "[classical]\nlaunch_power_dbm = 4000\n", encoding="utf-8")
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--scenario", str(ini), "--out", str(out)]) == 1
    assert not out.exists()
    assert "too large to convert" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_stdout_and_file_bytes_equal(fmt, tmp_path, capsysbinary):
    # 6,001 rows: more than one chunk.
    argv = ["sweep", "--preset", "fig4-full", "--from-km", "0", "--to-km",
            "300", "--step-km", "0.05", "--format", fmt]
    out = tmp_path / f"rows.{fmt}"
    assert main(argv + ["--out", str(out)]) == 0
    assert main(argv) == 0
    assert capsysbinary.readouterr().out == out.read_bytes()
    assert len(SweepSpec(0.0, 300.0, 0.05).distances()) > scenario._CHUNK_ROWS
