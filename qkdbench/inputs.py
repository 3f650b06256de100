"""Seeded inputs of the benchmark workloads.

Everything the program sees is made here from the seed: CLI argument lists
and INI scenario files. Each operation also carries what its checks need:
the link as a flat dict of numbers for the reference model (read from the
preset dataclasses or from the generated INI values), the distance grid and
the rows to compare.

Regenerate the inputs of any seed (INI files plus plan.json) with

    python3 qkdbench/inputs.py --workload scenarios-json --seed 7 --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

import reference

WORKLOADS = ("curves-csv", "search", "scenarios-json")
PRESETS = ("smf", "lp01in", "lp02in", "fig4-power", "fig4-power-fmf",
           "fig4-full")
CALIBRATION_PRESETS = ("smf", "lp01in", "lp02in")
N_INI = 48            # INI scenarios per scenarios-json round
DENSE_SAMPLES = 256   # rows per dense sweep compared with the reference
SMALL_SAMPLES = 24    # rows per 301-row sweep compared with the reference


def preset_link(name: str) -> dict:
    """Flat numbers of a preset, read from its dataclasses."""
    from qkdcoex import Band, get_preset

    s = get_preset(name)
    plan = s.link
    mode_q, mode_c = plan.scheme.quantum_mode, plan.scheme.classical_mode
    att = plan.fiber.attenuation_db_per_km
    alpha_q = att[(mode_q, Band.QUANTUM)]
    alpha_c = att[(mode_c, Band.CLASSICAL)]
    return {
        "alpha_q": alpha_q, "alpha_c": alpha_c,
        "il_q": [c.insertion_loss_db[mode_q] for c in plan.quantum_path_components],
        "il_c": [c.insertion_loss_db[mode_c] for c in plan.classical_path_components],
        "rho": s.raman.rho_cps_per_mw_km,
        "alpha_r": alpha_q if s.raman_alpha_basis is Band.QUANTUM else alpha_c,
        "divisor": s.noise_divisor,
        "launch_dbm": s.classical_launch_power_dbm, "adaptive": s.adaptive_power,
        "sens_dbm": s.receiver_sensitivity_dbm,
        "mu": s.intensities.mu, "nu": s.intensities.nu, "p_mu": s.intensities.p_mu,
        "clock": s.protocol.clock_hz, "ed": s.protocol.misalignment_error,
        "f": s.protocol.ec_efficiency, "q_sift": s.protocol.sifting_factor,
        "eff": s.detector.efficiency, "gate_hz": s.detector.gate_hz,
        "dark": s.detector.dark_count_per_gate, "n_det": s.detector.num_detectors,
    }


def _ini_scenario(rng: random.Random, scheme: str, adaptive: bool,
                  alpha_basis: str, divisor: str, extra_il: bool):
    """One INI file's text and the flat numbers it encodes."""
    def u(lo, hi, nd=4):
        return round(rng.uniform(lo, hi), nd)

    if scheme == "smf":
        att_q, att_c = u(0.17, 0.22), u(0.17, 0.22)
        mux, demux = u(0.3, 0.8, 2), u(0.3, 0.8, 2)
        fiber = {"kind": "smf", "attenuation_quantum_db_per_km": att_q,
                 "attenuation_classical_db_per_km": att_c}
        comps = {"mux_il_db": mux, "demux_il_db": demux}
        alpha_q, alpha_c, il_q, il_c = att_q, att_c, [mux, demux], [mux, demux]
        rho = u(8000, 15000, 0)
    else:
        a01, a02 = u(0.16, 0.26), u(0.16, 0.28)
        m01, m02, d01, d02 = (u(0.3, 4.0, 2) for _ in range(4))
        fiber = {"kind": "fmf", "attenuation_lp01_db_per_km": a01,
                 "attenuation_lp02_db_per_km": a02}
        comps = {"mux_il_lp01_db": m01, "mux_il_lp02_db": m02,
                 "demux_il_lp01_db": d01, "demux_il_lp02_db": d02}
        if scheme == "lp01in":      # classical on LP01, quantum on LP02
            alpha_q, alpha_c, il_q, il_c = a02, a01, [m02, d02], [m01, d01]
        else:                       # lp02in: classical on LP02, quantum on LP01
            alpha_q, alpha_c, il_q, il_c = a01, a02, [m01, d01], [m02, d02]
        rho = u(2000, 3500, 0)
    fiber["scheme"] = scheme
    if extra_il:
        q_extra, c_extra = u(0.2, 1.5, 2), u(0.2, 1.5, 2)
        comps.update(quantum_extra_il_db=q_extra, classical_extra_il_db=c_extra)
        il_q, il_c = il_q + [q_extra], il_c + [c_extra]
    p = {
        "alpha_q": alpha_q, "alpha_c": alpha_c, "il_q": il_q, "il_c": il_c,
        "rho": rho, "alpha_r": alpha_q if alpha_basis == "quantum" else alpha_c,
        "divisor": divisor, "launch_dbm": u(-6.0, 0.0, 2), "adaptive": adaptive,
        "sens_dbm": u(-36.0, -28.0, 2), "mu": u(0.3, 0.6, 3),
        "nu": u(0.05, 0.25, 3), "p_mu": 0.75, "clock": rng.choice((625e6, 1.25e9)),
        "ed": u(0.005, 0.04), "f": u(1.05, 1.3, 3), "q_sift": 0.5,
        "eff": u(0.08, 0.25, 3), "gate_hz": rng.choice((1.25e9, 2.5e9)),
        "dark": float(f"{rng.uniform(1e-7, 1e-6):.3g}"),
        "n_det": rng.choice((2, 4)),
    }
    sections = {
        "fiber": fiber,
        "components": comps,
        "classical": {"launch_power_dbm": p["launch_dbm"],
                      "adaptive_power": str(adaptive).lower(),
                      "receiver_sensitivity_dbm": p["sens_dbm"]},
        "quantum": {"mu": p["mu"], "nu": p["nu"], "p_mu": 0.75, "p_nu": 0.125,
                    "p_omega": 0.125, "clock_hz": p["clock"],
                    "misalignment_error": p["ed"],
                    "error_correction_efficiency": p["f"],
                    "sifting_factor": p["q_sift"]},
        "detector": {"efficiency": p["eff"], "gate_hz": p["gate_hz"],
                     "dark_count_per_gate": p["dark"],
                     "num_detectors": p["n_det"]},
        "raman": {"coefficient_cps_per_mw_km": rho, "alpha_basis": alpha_basis,
                  "noise_divisor": divisor},
        "sweep": {"from_km": 0, "to_km": 300, "step_km": 1},
    }
    text = "".join(
        f"[{name}]\n" + "".join(f"{k} = {v!r}\n" if isinstance(v, float)
                                else f"{k} = {v}\n" for k, v in body.items()) + "\n"
        for name, body in sections.items())
    return text, p


def _sample(rng: random.Random, n: int, k: int) -> list[int]:
    return sorted({0, n - 1, *rng.sample(range(1, n - 1), k)})


def _sweep(rng, argv, fmt, link, grid, samples, out):
    n = round((grid[1] - grid[0]) / grid[2]) + 1
    return {"kind": "sweep", "argv": ["sweep", *argv, "--format", fmt, "--out", out],
            "out": out, "format": fmt, "link": link, "grid": grid,
            "sample": _sample(rng, n, samples)}


def _max_distance(rng, preset, budget, out):
    lo = round(rng.uniform(0.0, 40.0), 2)
    hi = lo + 300.0          # every preset's cliff lies in [40, 300] km
    argv = ["max-distance", "--preset", preset, "--from-km", repr(lo),
            "--to-km", repr(hi), "--format", "json", "--out", out]
    if not budget:
        argv.append("--ignore-classical-budget")
    return {"kind": "max-distance", "argv": argv, "out": out, "scenario": preset,
            "budget": budget, "range": [lo, hi], "link": preset_link(preset)}


def _calibration(presets, targets, truth=None):
    return {"kind": "calibrate", "presets": list(presets),
            "targets": [list(t) for t in targets],
            "links": [preset_link(n) for n in presets], "truth": truth}


def _synthetic_calibration(rng):
    """Targets made by the reference model at a known grid point (ed, f)."""
    from qkdcoex import REFERENCE_TARGETS

    distances = [t.distance_km for _, t in REFERENCE_TARGETS]
    links = [preset_link(n) for n in CALIBRATION_PRESETS]
    while True:
        ed, f = rng.randint(5, 40) * 0.001, 1.0 + rng.randint(5, 45) * 0.01
        targets = []
        for p, d in zip(links, distances):
            ch = reference.channel(p, d)
            kr = reference.key_rate(p, ch["eta"], ch["y0"], ed, f)
            targets.append((d, kr["key_rate_bps"], kr["e_mu"]))
        if all(t[1] > 0.0 for t in targets):
            return _calibration(CALIBRATION_PRESETS, targets, [ed, f])


def _interleave(main: list, extra: list) -> list:
    """`main` in order, with `extra` spread evenly between its operations."""
    out = []
    for i, op in enumerate(main):
        out.append(op)
        out += extra[len(extra) * i // len(main):len(extra) * (i + 1) // len(main)]
    return out


def search_ops(rng, tmp: Path) -> tuple[list[dict], list[dict]]:
    """Twelve cliff searches (six presets, budget on and off) in seeded
    order on seeded ranges; calibrations on the reference targets and on
    three synthetic target sets."""
    from qkdcoex import REFERENCE_TARGETS

    pairs = [(p, b) for p in PRESETS for b in (True, False)]
    rng.shuffle(pairs)
    searches = [_max_distance(rng, p, b, str(tmp / f"max-{i}.json"))
                for i, (p, b) in enumerate(pairs)]
    calibrations = [_calibration(
        [n for n, _ in REFERENCE_TARGETS],
        [(t.distance_km, t.key_rate_bps, t.qber) for _, t in REFERENCE_TARGETS])]
    calibrations += [_synthetic_calibration(rng) for _ in range(3)]
    return searches, calibrations


def build_round(workload: str, seed: int, tmp: Path) -> list[dict]:
    """The operations of one round; every round of a run repeats them.

    Each workload has a main kind of operation and a few of the other kinds
    spread between them, so that every end-to-end metric is measured on
    every workload."""
    rng = random.Random(f"qkdbench:{workload}:{seed}")
    tmp = Path(tmp)
    if workload == "curves-csv":
        # A fixed order: peak memory depends on the order of the big tables.
        sweeps = [_sweep(rng, ["--preset", p, "--from-km", "0", "--to-km", "300",
                               "--step-km", "0.01"], "csv", preset_link(p),
                         [0.0, 300.0, 0.01], DENSE_SAMPLES, str(tmp / f"{p}.csv"))
                  for p in PRESETS]
        searches, calibrations = search_ops(rng, tmp)
        return _interleave(sweeps, 3 * _interleave(searches, calibrations))
    if workload == "search":
        searches, calibrations = search_ops(rng, tmp)
        sweeps = [_sweep(rng, ["--preset", p, "--from-km", "0", "--to-km", "300",
                               "--step-km", "1"], "json", preset_link(p),
                         [0.0, 300.0, 1.0], SMALL_SAMPLES, str(tmp / f"{p}.json"))
                  for p in rng.sample(PRESETS, 2)]
        return _interleave(_interleave(searches, calibrations), sweeps)
    if workload == "scenarios-json":
        combos = [(s, a, b, d) for s in ("smf", "lp01in", "lp02in")
                  for a in (False, True) for b in ("quantum", "classical")
                  for d in ("clock", "gate")]
        sweeps = []
        for i in range(N_INI):
            text, link = _ini_scenario(rng, *combos[i % len(combos)],
                                       extra_il=i >= len(combos))
            ini = tmp / f"s{i:03d}.ini"
            ini.write_text(text, encoding="utf-8")
            sweeps.append(_sweep(rng, ["--scenario", str(ini)], "json", link,
                                 [0.0, 300.0, 1.0], SMALL_SAMPLES,
                                 str(tmp / f"s{i:03d}.json")))
        searches, calibrations = search_ops(rng, tmp)
        return _interleave(sweeps, _interleave(searches[:8], calibrations[:2]))
    raise ValueError(f"unknown workload {workload!r}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    plan = build_round(args.workload, args.seed, args.out)
    (args.out / "plan.json").write_text(json.dumps(plan, indent=1) + "\n")
    print(f"{len(plan)} operations per round written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    raise SystemExit(main())
