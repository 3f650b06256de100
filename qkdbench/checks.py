"""Checks of every operation's output against the reference model and
physical properties. Each function returns a list of problems (empty when
the output is right); the runner counts an operation with any problem as
failed.
"""

from __future__ import annotations

import json
import math

import reference

# The results schema documented in the README (RESULT_FIELDS).
SCHEMA = ("distance_km", "launch_power_dbm", "quantum_loss_db",
          "classical_loss_db", "srs_rate_cps", "y0", "q_mu", "e_mu",
          "y1_lower", "e1_upper", "key_rate_bps", "classical_feasible")
EPS = 1e-9            # agreement with the reference, as a share of the error scale
MAX_REPORTED = 5      # problems reported per operation
RESOLUTION_KM = 0.01  # documented resolution of the cliff search
ED_BOUNDS, F_BOUNDS = (0.0, 0.05), (1.0, 1.5)


def _close(value: float, ref: float, scale: float) -> bool:
    return abs(value - ref) <= EPS * scale + 1e-300


def _rows_csv(path: str):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != ",".join(SCHEMA):
            raise ValueError(f"header {header!r}")
        for line in fh:
            cells = line.rstrip("\n").split(",")
            if len(cells) != len(SCHEMA) or cells[-1] not in ("true", "false"):
                raise ValueError(f"malformed row {line!r}")
            yield [float(c) for c in cells[:-1]] + [cells[-1] == "true"]


def _rows_json(path: str):
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    for obj in payload:
        if tuple(obj) != SCHEMA or not isinstance(obj["classical_feasible"], bool):
            raise ValueError(f"malformed row {obj!r}")
        yield [obj[k] for k in SCHEMA]


def _row_problems(i: int, row: dict, link: dict, d_expected: float,
                  ref: dict | None) -> list[str]:
    out = []
    d = row["distance_km"]
    if not all(math.isfinite(row[k]) for k in SCHEMA[:-1]):
        out.append(f"row {i}: non-finite value")
        return out
    if abs(d - d_expected) > EPS * max(1.0, abs(d_expected)):
        out.append(f"row {i}: distance {d!r}, grid gives {d_expected!r}")
    eta = 10.0 ** (-row["quantum_loss_db"] / 10.0) * link["eff"]
    if not (row["key_rate_bps"] >= 0.0 and 0.0 <= row["y0"] < 1.0
            and row["e_mu"] <= 0.5
            and row["y1_lower"] <= (row["y0"] + eta) * (1.0 + EPS)):
        out.append(f"row {i} at {d} km: outside physical ranges {row}")
    if ref is not None:
        for k in SCHEMA[:-1]:
            if not _close(row[k], ref[k], ref["scale"][k]):
                out.append(f"row {i} at {d} km: {k} = {row[k]!r}, "
                           f"reference {ref[k]!r}")
        margin = ref["closure_margin_db"]
        if abs(margin) > 1e-6 and row["classical_feasible"] != ref["classical_feasible"]:
            out.append(f"row {i} at {d} km: classical_feasible "
                       f"{row['classical_feasible']}, margin {margin} dB")
    return out


def check_sweep(op: dict) -> list[str]:
    """Header, row count, grid, physical ranges on every row, and the
    sampled rows against the reference."""
    lo, hi, step = op["grid"]
    n = round((hi - lo) / step) + 1
    sample = set(op["sample"])
    problems, count = [], 0
    rows = _rows_csv(op["out"]) if op["format"] == "csv" else _rows_json(op["out"])
    try:
        for i, values in enumerate(rows):
            count += 1
            row = dict(zip(SCHEMA, values))
            d_expected = lo + i * step
            ref = reference.point(op["link"], d_expected) if i in sample else None
            problems += _row_problems(i, row, op["link"], d_expected, ref)
            if len(problems) >= MAX_REPORTED:
                return problems
    except (ValueError, TypeError, KeyError) as exc:
        return problems + [f"unreadable output: {exc}"]
    if count != n:
        problems.append(f"{count} rows, expected {n}")
    return problems


def check_max_distance(op: dict) -> list[str]:
    """The bracket of the cliff search: reference rate > 0 at d and <= 0 at
    d + 0.01 km; with the budget on, the classical link closes at d."""
    with open(op["out"], encoding="utf-8") as fh:
        result = json.load(fh)
    d = result["max_secure_distance_km"]
    lo, hi = op["range"]
    problems = []
    if result["scenario"] != op["scenario"] or result["at_search_boundary"]:
        problems.append(f"unexpected result {result}")
    if not lo <= d <= hi:
        problems.append(f"distance {d} outside the range [{lo}, {hi}]")
    link, budget = op["link"], op["budget"]
    rate, scale = reference.rate_with_budget(link, d, budget)
    if not rate > -EPS * scale:
        problems.append(f"reference rate at {d} km is {rate}, not > 0")
    after, scale = reference.rate_with_budget(link, d + RESOLUTION_KM, budget)
    if not after <= EPS * scale:
        problems.append(f"reference rate at {d} + {RESOLUTION_KM} km is {after}, "
                        f"not <= 0")
    if budget and not reference.channel(link, d)["classical_feasible"]:
        problems.append(f"classical link does not close at {d} km")
    return problems


def check_calibration(op: dict, report, grid_min: float) -> list[str]:
    """Bounds, the reported objective against the reference objective at
    the same point and against the reference grid minimum, the residuals,
    and recovery of a known (ed, f) to one grid step."""
    ed, f = report.misalignment_error, report.ec_efficiency
    links, targets = op["links"], [tuple(t) for t in op["targets"]]
    problems = []
    if not (ED_BOUNDS[0] <= ed <= ED_BOUNDS[1] and F_BOUNDS[0] <= f <= F_BOUNDS[1]):
        problems.append(f"(ed, f) = ({ed}, {f}) outside the bounds")
    ref_obj = reference.objective(links, targets, ed, f)
    if not abs(report.objective - ref_obj) <= 1e-7 * abs(ref_obj) + 1e-9:
        problems.append(f"objective {report.objective!r}, reference at the "
                        f"same (ed, f) {ref_obj!r}")
    if not report.objective <= grid_min * (1.0 + 1e-9) + 1e-9:
        problems.append(f"objective {report.objective!r} above the reference "
                        f"grid minimum {grid_min!r}")
    if len(report.residuals) != len(targets):
        problems.append(f"{len(report.residuals)} residuals for {len(targets)} targets")
    for name, p, t, r in zip(op["presets"], links, targets, report.residuals):
        ch = reference.channel(p, t[0])
        kr = reference.key_rate(p, ch["eta"], ch["y0"], ed, f)
        if ((r.scenario, r.distance_km, r.target_rate_bps, r.target_qber)
                != (name, t[0], t[1], t[2])
                or not _close(r.key_rate_bps, kr["key_rate_bps"],
                              kr["scale"]["key_rate_bps"])
                or not _close(r.qber, kr["e_mu"], kr["scale"]["e_mu"])):
            problems.append(f"residual {r} disagrees with the reference "
                            f"rate {kr['key_rate_bps']!r}, QBER {kr['e_mu']!r}")
    if op["truth"] is not None:
        ed0, f0 = op["truth"]
        if abs(ed - ed0) > 0.001 + 1e-12 or abs(f - f0) > 0.01 + 1e-12:
            problems.append(f"fitted ({ed}, {f}) is more than one grid step "
                            f"from the generating ({ed0}, {f0})")
    return problems
