import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qkdcoex
from qkdcoex import scenario as scenario_mod
from qkdcoex.cli import build_parser, main
from qkdcoex.config import load_scenario
from qkdcoex.errors import ConfigError, DomainError
from qkdcoex.raman import read_measurements_csv
from qkdcoex.scenario import (RESULT_FIELDS, CalibrationTarget, SweepSpec,
                              calibrate, channel_state, evaluate_at,
                              max_secure_distance, run_sweep)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "qkdbench"))
import inputs  # noqa: E402

SCENARIO_INI = """
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

[sweep]
from_km = 0
to_km = 5
step_km = 1
"""
# The same link without a [sweep] section: the smf preset's values.
SMF_INI = SCENARIO_INI[:SCENARIO_INI.index("\n[sweep]")] + "\n"
SRC = Path(__file__).resolve().parent.parent / "src"


def _python_m(*argv, module="qkdcoex"):
    """`python -m qkdcoex *argv` (or another `module`) in a fresh interpreter:
    an exception that escapes `main` shows there as a traceback on stderr."""
    return subprocess.run([sys.executable, "-m", module, *argv],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True)


def test_presets_list(capsys):
    assert main(["presets", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("smf", "lp01in", "lp02in", "fig4-power", "fig4-power-fmf",
                 "fig4-full"):
        assert name in out


# The exact `presets list` output: each name padded to the longest, then
# its summary, whose numbers come from the constants the presets are built
# from.
PRESETS_LIST = (
    "smf             single-mode baseline; quantum and classical share the "
    "fundamental mode through 1546.92 nm DWDMs (0.49/0.36 dB)\n"
    "lp01in          two-mode FMF; classical on LP01, quantum on LP02 through "
    "mode couplers\n"
    "lp02in          two-mode FMF; classical on LP02, quantum on LP01 through "
    "mode couplers\n"
    "fig4-power      lp02in with adaptive minimum classical launch power\n"
    "fig4-power-fmf  fig4-power plus 0.165 dB/km fiber and 0.425 dB couplers\n"
    "fig4-full       fig4-power-fmf plus 20% efficiency / 230 cps dark "
    "detectors\n"
)


def test_presets_list_bytes():
    proc = _python_m("presets", "list")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, PRESETS_LIST, "")


def test_sweep_stdout_csv(capsys):
    assert main(["sweep", "--preset", "smf", "--from-km", "0",
                 "--to-km", "3", "--step-km", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("distance_km,launch_power_dbm,")
    assert len(lines) == 5


def test_sweep_stdout_csv_default_step(capsys):
    # The default grid from 0 km at 1 km: the RESULT_FIELDS header and one
    # row per km.
    assert main(["sweep", "--preset", "smf", "--to-km", "2",
                 "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ",".join(RESULT_FIELDS)
    assert [line.split(",")[0] for line in lines[1:]] == [
        "0.e+00", "1.e+00", "2.e+00"]


def test_sweep_json_out_file(tmp_path, capsys):
    out = tmp_path / "rows.json"
    assert main(["sweep", "--preset", "lp02in", "--from-km", "0",
                 "--to-km", "10", "--step-km", "5",
                 "--out", str(out), "--format", "json"]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert [row["distance_km"] for row in payload] == [0.0, 5.0, 10.0]


def test_sweep_from_scenario_file_uses_sweep_section(tmp_path, capsys):
    path = tmp_path / "custom.ini"
    path.write_text(SCENARIO_INI, encoding="utf-8")
    assert main(["sweep", "--scenario", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7  # header + 0..5 km


def test_sweep_flag_overrides_file(tmp_path, capsys):
    path = tmp_path / "custom.ini"
    path.write_text(SCENARIO_INI, encoding="utf-8")
    assert main(["sweep", "--scenario", str(path), "--to-km", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4

def test_sweep_determinism_bytes(tmp_path):
    args = ["sweep", "--preset", "lp02in", "--from-km", "0", "--to-km", "100",
            "--step-km", "1", "--format", "csv"]
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_max_distance_text(capsys):
    assert main(["max-distance", "--preset", "fig4-full",
                 "--to-km", "300"]) == 0
    out = capsys.readouterr().out
    assert "max secure distance" in out
    assert "179" in out


def test_max_distance_json(capsys):
    assert main(["max-distance", "--preset", "fig4-full", "--to-km", "300",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert 175.0 <= payload["max_secure_distance_km"] <= 195.0
    assert payload["at_search_boundary"] is False


def test_max_distance_no_secure_range_exit_2(capsys):
    assert main(["max-distance", "--preset", "smf", "--from-km", "250",
                 "--to-km", "260"]) == 2
    assert "computation failed" in capsys.readouterr().err


def test_max_distance_without_dark_counts(tmp_path, capsys):
    # With no dark counts, the gains far past the cliff are subnormal; a Y1
    # bound made of their rounding noise would give a positive rate as far
    # out as 16956 km.
    path = tmp_path / "dark0.ini"
    path.write_text(SCENARIO_INI + "\n[detector]\ndark_count_per_gate = 0\n",
                    encoding="utf-8")
    for to_km in ("300", "20000"):
        assert main(["max-distance", "--scenario", str(path), "--from-km", "0",
                     "--to-km", to_km, "--ignore-classical-budget"]) == 0
        assert capsys.readouterr().out == (
            "dark0: max secure distance 245.85 km\n")


def test_max_distance_overflowing_power_exit_1(tmp_path, capsys):
    # 10**(4000/10) mW overflows a float: a validation error, not a traceback.
    path = tmp_path / "hot.ini"
    path.write_text(SCENARIO_INI + "\n[classical]\nlaunch_power_dbm = 4000\n",
                    encoding="utf-8")
    assert main(["max-distance", "--scenario", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("qkdcoex: power 4000.0 dBm is too large to "
                            "convert to mW\n")


# Above that INI's classical cliff (about 21,000 km) the budget-on search
# still probes the channel wherever one may raise, so it fails as the sweep
# does instead of reporting no secure distance (exit 2).
@pytest.mark.parametrize("argv", [
    ["max-distance", "--from-km", "30000", "--to-km", "30300"],
    ["sweep"],
], ids=["max-distance-above-cliff", "sweep"])
def test_overflowing_power_raises_wherever_probed(argv, tmp_path, capsys):
    path = tmp_path / "overflow.ini"
    path.write_text(SMF_INI + "\n[classical]\nlaunch_power_dbm = 4000\n",
                    encoding="utf-8")
    assert main([argv[0], "--scenario", str(path), *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("qkdcoex: power 4000.0 dBm is too large to "
                            "convert to mW\n")


# Links whose losses overflow a float, with a sweep that reaches the
# overflow: (INI, --from-km, --to-km). The first one's insertion losses
# alone overflow; the second one's loss does only at 1.79e308 km.
_OVERFLOWING_LINKS = {
    "insertion-loss": (SCENARIO_INI.replace("= 0.49", "= 1.7e308").replace(
        "= 0.36", "= 1.7e308"), "0", "1"),
    "far": (SCENARIO_INI.replace("= 0.190", "= 0.99").replace(
        "= 0.192", "= 0.99").replace("= 0.49", "= 1e307"),
        "1.79e308", "1.79e308"),
}


@pytest.mark.parametrize("case", sorted(_OVERFLOWING_LINKS))
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_overflowing_loss_exit_1(case, fmt, tmp_path, capsys):
    # An infinite loss is an error, not an `inf` or `Infinity` row. The
    # sweep stops at its first grid point, where the loss already overflows.
    ini, from_km, to_km = _OVERFLOWING_LINKS[case]
    path, out = tmp_path / "lossy.ini", tmp_path / "rows.out"
    path.write_text(ini, encoding="utf-8")
    message = f"link budget overflows a float at {float(from_km)} km"
    assert main(["sweep", "--scenario", str(path), "--from-km", from_km,
                 "--to-km", to_km, "--step-km", "1", "--format", fmt,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"qkdcoex: {message}\n"
    assert not out.exists()
    scenario = load_scenario(path)
    sweep = SweepSpec(float(from_km), float(to_km), 1.0)
    with pytest.raises(DomainError, match=re.escape(message)):
        run_sweep(scenario, sweep)
    with pytest.raises(DomainError, match=re.escape(
            f"link budget overflows a float at {float(to_km)} km")):
        evaluate_at(scenario, float(to_km))


@pytest.mark.parametrize("case", sorted(_OVERFLOWING_LINKS))
@pytest.mark.parametrize("budget", [[], ["--ignore-classical-budget"]])
def test_max_distance_overflowing_loss_exit_1(case, budget, tmp_path, capsys):
    # The search fails at the first overflowing distance it evaluates, as a
    # sweep does, not with "key rate is non-positive" (exit 2).
    ini, from_km, to_km = _OVERFLOWING_LINKS[case]
    path = tmp_path / "lossy.ini"
    path.write_text(ini, encoding="utf-8")
    assert main(["max-distance", "--scenario", str(path), "--from-km",
                 from_km, "--to-km", to_km, *budget]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"qkdcoex: link budget overflows a float at \S+ km\n",
                        captured.err)


@pytest.mark.parametrize("argv", [
    ["sweep", "--to-km", "1", "--step-km", "1"],
    ["max-distance"],
    ["max-distance", "--ignore-classical-budget"],
], ids=["sweep", "max-distance", "max-distance-rate-only"])
def test_overflowing_insertion_loss_default_range_exit_1(argv, tmp_path,
                                                         capsys):
    # The flags' own range, from 0 km: each verb fails with one line.
    path = tmp_path / "lossy.ini"
    path.write_text(SMF_INI.replace("= 0.49", "= 1.7e308").replace(
        "= 0.36", "= 1.7e308"), encoding="utf-8")
    assert main([argv[0], "--scenario", str(path), *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"qkdcoex: link budget overflows a float at \S+ km\n",
                        captured.err)


@pytest.mark.parametrize("call", [
    lambda s: max_secure_distance(s),
    lambda s: max_secure_distance(s, require_classical_feasible=False),
    lambda s: evaluate_at(s, 10.0),
    lambda s: channel_state(s, 10.0),
    lambda s: run_sweep(s, SweepSpec(0.0, 10.0, 1.0)),
    lambda s: calibrate([s], [CalibrationTarget(10.0, 1.0, 0.01)])])
def test_overflowing_loss_is_one_domain_error(call, tmp_path):
    path = tmp_path / "lossy.ini"
    path.write_text(_OVERFLOWING_LINKS["insertion-loss"][0], encoding="utf-8")
    with pytest.raises(DomainError,
                       match=r"^link budget overflows a float at \S+ km$"):
        call(load_scenario(path))


def test_overflow_checked_in_the_channel_only():
    assert not hasattr(scenario_mod, "_finite_losses")


def test_misspelled_sweep_key_exit_1(tmp_path, capsys):
    # A [sweep] section with none of its keys spelled right is an error,
    # not a file without a sweep (the default grid, exit 0).
    path = tmp_path / "typo.ini"
    path.write_text(SCENARIO_INI.replace("to_km = 5", "to_kms = 5").replace(
        "from_km = 0\n", "").replace("step_km = 1\n", ""), encoding="utf-8")
    for verb in ("sweep", "max-distance"):
        assert main([verb, "--scenario", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "qkdcoex: [sweep] unknown key(s): to_kms\n"


def test_unknown_fiber_kind_exit_1(tmp_path, capsys):
    path = tmp_path / "xmf.ini"
    path.write_text(SCENARIO_INI.replace("kind = smf", "kind = xmf"),
                    encoding="utf-8")
    assert main(["max-distance", "--scenario", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "qkdcoex: [fiber] kind must be smf or fmf, got 'xmf'\n"


def test_max_distance_below_float_resolution_exit_1(tmp_path, capsys):
    # With almost no attenuation and no Raman noise the cliff lies near
    # 7.1e13 km, where adjacent floats are 0.0156 km apart: the bisection
    # cannot reach 0.01 km. It used to loop forever.
    path = tmp_path / "far.ini"
    path.write_text(SCENARIO_INI.replace("= 0.190", "= 4.2766e-13").replace(
        "= 12076", "= 1e-30"), encoding="utf-8")
    assert main(["max-distance", "--scenario", str(path), "--from-km",
                 "71003193878500", "--to-km", "71003193879500",
                 "--ignore-classical-budget"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("qkdcoex: resolution 0.01 km is below "
                                   "the float resolution at 7100319387")


def test_parser_reused_without_state(capsys):
    assert build_parser() is not build_parser()
    argv = ["max-distance", "--preset", "fig4-full", "--format", "json"]
    assert main(argv) == 0
    gated = json.loads(capsys.readouterr().out)
    assert main(argv + ["--ignore-classical-budget", "--to-km", "200"]) == 0
    free = json.loads(capsys.readouterr().out)
    assert main(argv) == 0
    # a flag of the previous call leaves no trace in the next one
    assert json.loads(capsys.readouterr().out) == gated
    assert free != gated


def test_calibrate_json(capsys):
    assert main(["calibrate", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert 0.0 <= payload["misalignment_error"] <= 0.05
    assert 1.0 <= payload["ec_efficiency"] <= 1.5
    assert len(payload["residuals"]) == 3


def test_fit_raman(tmp_path, capsys):
    csv_path = tmp_path / "m.csv"
    rows = ["distance_km,power_mw,rate_cps"]
    for d in (10.0, 30.0, 60.0):
        rows.append(f"{d},0.5495,{2655.0 * 0.5495 * d * 10 ** (-0.226 * d / 10)}")
    csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert main(["fit-raman", "--measurements", str(csv_path),
                 "--alpha-db-per-km", "0.226", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rho_cps_per_mw_km"] == pytest.approx(2655.0, rel=1e-9)


def test_fit_raman_text(tmp_path, capsys):
    path = tmp_path / "noise.csv"
    path.write_text("distance_km,power_mw,rate_cps\n10,0.5,9000\n"
                    "25,0.5,13000\n50,0.5,12500\n", encoding="utf-8")
    assert main(["fit-raman", "--measurements", str(path),
                 "--alpha-db-per-km", "0.2"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "rho = 3488.48 cps/(mW km) from 3 measurement(s)\n"
    assert captured.err == ""


def _measurements_csv(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("distance_km,power_mw,rate_cps\n10,0.5,5000\n50,0.5,8000\n",
                    encoding="utf-8")
    return path


@pytest.mark.parametrize("alpha", ("-0.5", "nan", "inf"))
def test_fit_raman_bad_attenuation_exit_1(alpha, tmp_path, capsys):
    assert main(["fit-raman", "--measurements", str(_measurements_csv(tmp_path)),
                 f"--alpha-db-per-km={alpha}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"attenuation must be finite and >= 0 dB/km, got {alpha}" in captured.err


def test_fit_raman_missing_file_exit_1(tmp_path, capsys):
    path = tmp_path / "nope.csv"
    assert main(["fit-raman", "--measurements", str(path),
                 "--alpha-db-per-km", "0.2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"qkdcoex: cannot read measurements file {path}: [Errno 2]")


# A field longer than csv's limit (131,072 characters), in the header and
# in a data row.
@pytest.mark.parametrize("text", [
    "distance_km,power_mw,rate_cps" + "x" * 131_073 + "\n10,0.5,5000\n",
    "distance_km,power_mw,rate_cps\n10,0.5,5000\n25,0.5,"
    + "1" * 131_073 + "\n",
], ids=["header", "row"])
def test_fit_raman_oversized_field_exit_1(text, tmp_path):
    path = tmp_path / "noise.csv"
    path.write_text(text, encoding="utf-8")
    proc = _python_m("fit-raman", "--measurements", str(path),
                     "--alpha-db-per-km", "0.2")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr == (f"qkdcoex: {path}: field larger than field limit "
                           f"(131072)\n")


# A row with more or fewer fields than the header is refused, where extra
# fields were dropped and the fit went on.
@pytest.mark.parametrize("row, count", [("10,1,5,7", 4), ("10,1", 2)])
def test_fit_raman_wrong_field_count_exit_1(row, count, tmp_path):
    path = tmp_path / "noise.csv"
    path.write_text(f"distance_km,power_mw,rate_cps\n20,1,9\n{row}\n",
                    encoding="utf-8")
    message = f"{path}:3: expected 3 fields, got {count}"
    proc = _python_m("fit-raman", "--measurements", str(path),
                     "--alpha-db-per-km", "0.2")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"qkdcoex: {message}\n"
    with pytest.raises(ConfigError) as exc:
        read_measurements_csv(path)
    assert str(exc.value) == message


def test_sweep_step_below_float_resolution_exit_1(tmp_path, capsys):
    # Floats are 16 km apart at 1e17 km: a 1 km step would give 161 rows
    # holding 11 distances.
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--preset", "smf", "--from-km", "1e17",
                 "--to-km", "1.0000000000000016e17", "--step-km", "1",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "qkdcoex: sweep step 1.0 km is below the float resolution at "
        "1.0000000000000016e+17 km\n")
    assert not out.exists()


# 10**400 detectors: an int too large for a float, which the dark-count
# term of Y0 needs.
@pytest.mark.parametrize("argv", (
    ["max-distance"],
    ["sweep", "--from-km", "0", "--to-km", "1", "--step-km", "1"],
))
def test_overflowing_num_detectors_exit_1(argv, tmp_path, capsys):
    path = tmp_path / "many.ini"
    path.write_text(SCENARIO_INI + "\n[detector]\nnum_detectors = 1"
                    + "0" * 400 + "\n", encoding="utf-8")
    assert main([argv[0], "--scenario", str(path), *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("qkdcoex: detector num_detectors is too large "
                            "to convert to a float\n")


# 10**400 bits: block_size_bits enters no computation, but an int beyond
# the float range is rejected like any other number of the file.
@pytest.mark.parametrize("verb", ["max-distance", "sweep"])
def test_overflowing_block_size_exit_1(verb, tmp_path, capsys):
    path = tmp_path / "block.ini"
    path.write_text(SMF_INI + "\n[quantum]\nblock_size_bits = 1"
                    + "0" * 400 + "\n", encoding="utf-8")
    assert main([verb, "--scenario", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("qkdcoex: protocol block_size_bits is too large "
                            "to convert to a float\n")


@pytest.mark.parametrize("verb, flag, content, extra", (
    ("max-distance", "--scenario", SMF_INI, ()),
    ("fit-raman", "--measurements",
     "distance_km,power_mw,rate_cps\n10,0.5,9000\n25,0.5,13000\n",
     ("--alpha-db-per-km", "0.2")),
), ids=("max-distance", "fit-raman"))
def test_utf8_byte_order_mark_is_read(verb, flag, content, extra, tmp_path):
    """A file that starts with the UTF-8 byte-order mark, as spreadsheet
    programs write "CSV UTF-8", reads as the same file without it."""
    # One stem in two folders: a scenario takes its name from the stem.
    (tmp_path / "plain").mkdir(), (tmp_path / "marked").mkdir()
    plain, marked = tmp_path / "plain" / "link", tmp_path / "marked" / "link"
    plain.write_text(content, encoding="utf-8")
    marked.write_text(content, encoding="utf-8-sig")
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    runs = [_python_m(verb, flag, str(path), *extra, "--format", "json")
            for path in (plain, marked)]
    assert [(p.returncode, p.stderr) for p in runs] == [(0, "")] * 2
    assert runs[0].stdout == runs[1].stdout != ""


@pytest.mark.parametrize("verb, flag, content", (
    ("max-distance", "--scenario", b"\xff" + SCENARIO_INI.encode()),
    ("sweep", "--scenario", SCENARIO_INI.encode() + b"# \xff\n"),
    ("fit-raman", "--measurements",
     b"distance_km,power_mw,rate_cps\n10,0.5,5000\xff\n"),
), ids=("max-distance", "sweep", "fit-raman"))
def test_non_utf8_file_exit_1(verb, flag, content, tmp_path, capsys):
    path = tmp_path / "input"
    path.write_bytes(content)
    extra = ["--alpha-db-per-km", "0.2"] if verb == "fit-raman" else []
    assert main([verb, flag, str(path), *extra]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(path) in captured.err
    assert "not UTF-8 text" in captured.err


def test_max_distance_negative_start_exit_1(capsys):
    assert main(["max-distance", "--preset", "smf", "--from-km", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "link length must be >= 0 km, got -1.0" in captured.err


def test_unknown_preset_exit_1(capsys):
    assert main(["sweep", "--preset", "nope"]) == 1
    assert "unknown preset" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ("sweep", "max-distance"))
def test_empty_preset_name_exit_1(verb, capsys):
    # An empty name is a preset name like any other, not a missing one.
    assert main([verb, "--preset", ""]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("qkdcoex: unknown preset ''; available: ")


def test_invalid_scenario_file_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(SCENARIO_INI.replace("0.190", "-0.190"), encoding="utf-8")
    assert main(["sweep", "--scenario", str(path)]) == 1


def test_stray_percent_in_ini_exit_1(tmp_path):
    # Through `python -m qkdcoex`, so an escaping exception would show as
    # a traceback on stderr.
    path = tmp_path / "pct.ini"
    path.write_text(SCENARIO_INI + "\n[classical]\nlaunch_power_dbm = -2.6%\n",
                    encoding="utf-8")
    proc = _python_m("max-distance", "--scenario", str(path))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(
        f"qkdcoex: scenario file {path}: [classical] launch_power_dbm: ")


@pytest.mark.parametrize("argv, stdout", [
    (["presets", "list"], None),
    (["max-distance", "--preset", "fig4-full"],
     "fig4-full: max secure distance 179.09 km\n"),
    (["max-distance", "--preset", "smf", "--format", "json"], None),
], ids=["presets", "max-distance", "max-distance-json"])
def test_module_entry_point(argv, stdout, capsys):
    # `python -m qkdcoex` prints what `main` prints and exits with its code.
    proc = _python_m(*argv)
    assert main(argv) == 0
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, capsys.readouterr().out, "")
    if stdout is not None:
        assert proc.stdout == stdout


def test_cli_module_entry_point():
    # `python -m qkdcoex.cli` runs cli.py's own `__main__` block, which
    # `python -m qkdcoex` (it runs __main__.py) never reaches.
    package = _python_m("presets", "list")
    module = _python_m("presets", "list", module="qkdcoex.cli")
    assert package.returncode == 0 and package.stdout
    assert (module.returncode, module.stdout, module.stderr) == (
        0, package.stdout, package.stderr)


def test_backend_name():
    # Benchmark runs record it; the per-point code is Python only.
    assert qkdcoex.backend_name() == "python"


def test_unparsed_argument_exit_1(capsys):
    # Arguments the verb leaves unparsed are a usage error of the top-level
    # parser, named by its prog.
    with pytest.raises(SystemExit) as exc:
        main(["max-distance", "--preset", "smf", "bogus"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        "qkdcoex: error: unrecognized arguments: bogus")


def test_usage_error_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep"])  # neither --preset nor --scenario
    assert exc.value.code == 1


def test_bad_sweep_range_exit_1(capsys):
    assert main(["sweep", "--preset", "smf", "--from-km", "10",
                 "--to-km", "5"]) == 1


_NON_FINITE = [("--from-km", "nan"), ("--to-km", "nan"), ("--to-km", "inf")]


@pytest.mark.parametrize("verb, flag, value", (
    [("sweep", flag, value) for flag, value in
     _NON_FINITE + [("--step-km", "nan"), ("--step-km", "inf")]]
    + [("max-distance", flag, value) for flag, value in _NON_FINITE]))
def test_non_finite_distance_exit_1(verb, flag, value, capsys):
    assert main([verb, "--preset", "smf", flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


def test_non_finite_scenario_value_exit_1(tmp_path, capsys):
    path = tmp_path / "nan-power.ini"
    path.write_text(SCENARIO_INI + "\n[classical]\nlaunch_power_dbm = nan\n",
                    encoding="utf-8")
    assert main(["sweep", "--scenario", str(path), "--from-km", "50",
                 "--to-km", "50", "--step-km", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "launch_power_dbm must be finite" in captured.err


# Rejected from the computed grid size, before any grid is built.
@pytest.mark.parametrize("argv", (
    ["sweep", "--preset", "smf", "--to-km", "1e-200", "--step-km", "1e-300"],
    ["max-distance", "--preset", "smf", "--to-km", "1e9"]))
def test_oversized_grid_exit_1(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "1000000 points" in captured.err


def test_sweep_astronomical_distance_finite(capsys):
    # power*rho*L overflows here; the attenuation has underflowed to 0.0.
    assert main(["sweep", "--preset", "smf", "--from-km", "1e306",
                 "--to-km", "1e306", "--step-km", "1"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["srs_rate_cps"] == "0.e+00"
    assert all(math.isfinite(float(v)) for k, v in fields.items()
               if k != "classical_feasible")


def _out_argv(verb, tmp_path):
    """A successful run of `verb` before its --out flag."""
    return {
        "sweep": ["sweep", "--preset", "smf", "--to-km", "2"],
        "max-distance": ["max-distance", "--preset", "smf"],
        "calibrate": ["calibrate"],
        "fit-raman": ["fit-raman", "--measurements",
                      str(_measurements_csv(tmp_path)),
                      "--alpha-db-per-km", "0.2"],
    }[verb]


_OUT_VERBS = ("sweep", "max-distance", "calibrate", "fit-raman")


@pytest.mark.parametrize("verb", _OUT_VERBS)
def test_out_path_that_cannot_be_opened_exit_1(verb, tmp_path, capsys):
    path = tmp_path / "missing-dir" / "x.txt"
    assert main(_out_argv(verb, tmp_path) + ["--out", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"qkdcoex: cannot write results to {path}: [Errno 2]")
    assert captured.err.count("\n") == 1
    assert not path.parent.exists()


@pytest.mark.parametrize("verb", _OUT_VERBS)
def test_empty_out_path_exit_1(verb, tmp_path, monkeypatch, capsys):
    # An empty path is a path that cannot be opened, not a request for stdout.
    argv = _out_argv(verb, tmp_path) + ["--out", ""]
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.iterdir())
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("qkdcoex: cannot write results to : [Errno 2]")
    assert sorted(tmp_path.iterdir()) == before


# /dev/full opens, and every write to it fails with ENOSPC.
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("verb", _OUT_VERBS)
def test_out_write_error_after_open_exit_2(verb, tmp_path, capsys):
    assert main(_out_argv(verb, tmp_path) + ["--out", "/dev/full"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("qkdcoex: computation failed: cannot write "
                                   "results to /dev/full: [Errno 28]")


def test_stdout_write_error_exit_2(monkeypatch, capsys):
    # An OSError from writing to stdout (a closed pipe) is a failure of the
    # run, not a usage problem, and not a traceback.
    class ClosedPipe(io.StringIO):
        def writelines(self, lines):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["max-distance", "--preset", "smf"]) == 2
    assert capsys.readouterr().err == "qkdcoex: [Errno 32] Broken pipe\n"


def test_foreign_exception_in_sweep_exit_2(monkeypatch, capsys):
    # An exception that is not one of the package's own becomes a
    # computation failure naming the scenario and the distance.
    point = scenario_mod._point

    def failing(channel, key, d):
        if d == 2.0:
            raise ArithmeticError("injected")
        return point(channel, key, d)

    monkeypatch.setattr(scenario_mod, "_point", failing)
    assert main(["sweep", "--preset", "smf", "--to-km", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("qkdcoex: computation failed: sweep of 'smf' "
                            "failed at 2.0 km: injected\n")


# Extreme values for any numeric INI key: signed zeros, subnormals, values
# near the float limits, launch powers at and past the edge of the
# milliwatt overflow (about 3082.5 dBm), and literals that overflow a float.
_EXTREMES = ("0.0", "-0.0", "5e-324", "1e-310", "1e300", "-1e300", "1.7e308",
             "3082.5", "4000", "1e400", str(10**400))


@st.composite
def _extreme_ini(draw):
    """A physical INI scenario with 1-3 numeric keys set to extremes."""
    text, _ = inputs._ini_scenario(
        draw(st.randoms(use_true_random=False)),
        draw(st.sampled_from(("smf", "lp01in", "lp02in"))), draw(st.booleans()),
        draw(st.sampled_from(("quantum", "classical"))),
        draw(st.sampled_from(("clock", "gate"))), draw(st.booleans()))
    numeric = re.findall(r"^(\w+) = [-+\d.]", text, flags=re.M)
    for key in draw(st.lists(st.sampled_from(numeric), min_size=1,
                             max_size=3, unique=True)):
        text = re.sub(rf"^{key} = .*$", f"{key} = {draw(st.sampled_from(_EXTREMES))}",
                      text, flags=re.M)
    return text


@settings(deadline=None, max_examples=80)
@given(ini=_extreme_ini())
def test_every_verb_exits_cleanly_on_extreme_ini(ini):
    """Whatever the INI holds, `main` returns 0, 1 or 2 with one message and
    no traceback; 2 is a computation failure."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "extreme.ini"
        path.write_text(ini, encoding="utf-8")
        for argv in (["sweep", "--step-km", "7"],
                     ["sweep", "--step-km", "13", "--format", "json"],
                     ["max-distance"],
                     ["max-distance", "--ignore-classical-budget"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv + ["--scenario", str(path)])
            stderr = err.getvalue()
            assert code in (0, 1, 2), (argv, stderr)
            assert "Traceback" not in stderr
            if code == 0:
                assert out.getvalue() and not stderr
            else:
                assert stderr.startswith("qkdcoex: ") and stderr.count("\n") == 1
            if code == 2:
                assert stderr.startswith("qkdcoex: computation failed:"), stderr
