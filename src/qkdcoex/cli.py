"""Command-line interface.

Verbs: sweep, max-distance, calibrate, fit-raman, presets list.
Exit codes: 0 success, 1 usage or validation problem, 2 computation failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import presets as presets_mod
from .errors import ComputationError, QkdCoexError, _replace
from .raman import fit_raman_coefficient, read_measurements_csv
from .scenario import (_FORMATS, Scenario, SweepSpec, _chunks, _sweep_table,
                       _write, calibrate, max_secure_distance)

_DEFAULT_SWEEP = SweepSpec(0.0, 100.0, 1.0)


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _add_scenario_args(parser: argparse.ArgumentParser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--scenario", metavar="PATH",
                       help="scenario configuration file (INI)")
    group.add_argument("--preset", metavar="NAME",
                       help="built-in preset (see 'presets list')")


def _resolve_scenario(args) -> tuple[Scenario, SweepSpec | None]:
    if args.preset is not None:
        return presets_mod.get_preset(args.preset), None
    # The INI reader (and configparser) loads only when a file is read.
    from .config import _load_scenario_file
    return _load_scenario_file(args.scenario)


def _emit(chunks, out: str | None):
    """Write the text pieces to the `--out` file, or to stdout without one."""
    if out is not None:
        _write(chunks, out)
    else:
        sys.stdout.writelines(chunks)


def _add_output_args(parser: argparse.ArgumentParser, formats: tuple[str, ...]):
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="output file (default: stdout)")
    parser.add_argument("--format", choices=formats, default=formats[0])


def _report(args, payload: dict, text: str):
    """Write `payload` as JSON with `--format json`, else `text`."""
    if args.format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    _emit([text], args.out)


def _build_parsers() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and its verb parsers, by verb name."""
    parser = _Parser(prog="qkdcoex",
                     description="QKD / classical coexistence simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="distance sweep to CSV/JSON")
    _add_scenario_args(p_sweep)
    for name in SweepSpec._record_names:   # --from-km, --to-km, --step-km
        p_sweep.add_argument(f"--{name.replace('_', '-')}", type=float,
                             default=None)
    _add_output_args(p_sweep, tuple(_FORMATS))

    p_max = sub.add_parser("max-distance",
                           help="largest distance with a positive key rate")
    _add_scenario_args(p_max)
    p_max.add_argument("--from-km", type=float, default=0.0)
    p_max.add_argument("--to-km", type=float, default=300.0)
    p_max.add_argument("--ignore-classical-budget", action="store_true",
                       help="rate-only cliff, even where the classical "
                            "channel cannot close")
    _add_output_args(p_max, ("text", "json"))

    p_cal = sub.add_parser("calibrate",
                           help="fit shared (misalignment, EC efficiency) to "
                                "the reference operating points")
    _add_output_args(p_cal, ("text", "json"))

    p_fit = sub.add_parser("fit-raman",
                           help="least-squares Raman coefficient from a "
                                "measurement CSV")
    p_fit.add_argument("--measurements", metavar="PATH", required=True,
                       help="CSV with header distance_km,power_mw,rate_cps")
    p_fit.add_argument("--alpha-db-per-km", type=float, required=True,
                       help="attenuation of the detected-noise path")
    _add_output_args(p_fit, ("text", "json"))

    p_presets = sub.add_parser("presets", help="inspect built-in presets")
    p_presets.add_argument("action", choices=("list",))

    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    return _build_parsers()[0]


# Built on first use and shared by every `main` call in the process: parsing
# leaves a parser unchanged, and every default above is immutable.
_shared_parsers = functools.cache(_build_parsers)


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """`build_parser().parse_args(argv)`, in one argparse pass where it can.

    The top-level parser hands every argument after the verb to the verb's
    parser. When that parser consumes them all, its namespace, with
    `command` first as the top-level parse sets it, is the full parse's.
    Anything else (no verb, `-h`, an unknown verb, or arguments the verb
    leaves unparsed) goes through the top-level parser, which prints the
    help, usage or error.
    """
    parser, verbs = _shared_parsers()
    if argv is None:
        argv = sys.argv[1:]
    verb = verbs.get(argv[0]) if argv else None
    if verb is not None:
        args, extras = verb.parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0]))
        if not extras:
            return args
    return parser.parse_args(argv)


def _cmd_sweep(args) -> int:
    scenario, file_sweep = _resolve_scenario(args)
    flags = {name: value for name in SweepSpec._record_names
             if (value := getattr(args, name)) is not None}
    sweep = _replace(file_sweep or _DEFAULT_SWEEP, **flags)
    # The whole table is computed before any output, so a failed sweep
    # leaves no --out file.
    table = _sweep_table(scenario, sweep)
    _emit(_chunks(table, args.format), args.out)
    return 0


def _cmd_max_distance(args) -> int:
    scenario, _ = _resolve_scenario(args)
    result = max_secure_distance(
        scenario, args.from_km, args.to_km,
        require_classical_feasible=not args.ignore_classical_budget,
    )
    note = " (at search boundary)" if result.at_upper_boundary else ""
    _report(args, {
        "scenario": scenario.name,
        "max_secure_distance_km": result.distance_km,
        "at_search_boundary": result.at_upper_boundary,
    }, f"{scenario.name}: max secure distance "
       f"{result.distance_km:.2f} km{note}\n")
    return 0


# The keys of each `calibrate --format json` residual, in order.
_RESIDUAL_KEYS = ("scenario", "distance_km", "key_rate_bps", "target_rate_bps",
                  "rate_ratio", "qber", "target_qber", "qber_delta")


def _cmd_calibrate(args) -> int:
    scenarios = [presets_mod.get_preset(name)
                 for name, _ in presets_mod.REFERENCE_TARGETS]
    targets = [target for _, target in presets_mod.REFERENCE_TARGETS]
    report = calibrate(scenarios, targets)
    payload = {key: getattr(report, key)
               for key in ("misalignment_error", "ec_efficiency", "objective")}
    payload["residuals"] = [{key: getattr(r, key) for key in _RESIDUAL_KEYS}
                            for r in report.residuals]
    lines = [
        f"misalignment_error = {report.misalignment_error:.6f}",
        f"ec_efficiency      = {report.ec_efficiency:.6f}",
        f"objective          = {report.objective:.6g}",
    ]
    for r in report.residuals:
        lines.append(
            f"{r.scenario:8s} @ {r.distance_km:5.1f} km: "
            f"rate {r.key_rate_bps:10.1f} bps (target {r.target_rate_bps:.1f}, "
            f"x{r.rate_ratio:.2f}), QBER {100 * r.qber:.2f}% "
            f"(target {100 * r.target_qber:.2f}%, "
            f"{100 * r.qber_delta:+.2f} pp)"
        )
    _report(args, payload, "\n".join(lines) + "\n")
    return 0


def _cmd_fit_raman(args) -> int:
    measurements = read_measurements_csv(args.measurements)
    coeff = fit_raman_coefficient(measurements, args.alpha_db_per_km)
    _report(args, {
        "rho_cps_per_mw_km": coeff.rho_cps_per_mw_km,
        "alpha_db_per_km": args.alpha_db_per_km,
        "points": len(measurements),
    }, f"rho = {coeff.rho_cps_per_mw_km:.6g} cps/(mW km) "
       f"from {len(measurements)} measurement(s)\n")
    return 0


def _cmd_presets(args) -> int:
    width = max(len(n) for n in presets_mod.preset_names())
    for name in presets_mod.preset_names():
        sys.stdout.write(
            f"{name:<{width}}  {presets_mod.PRESET_SUMMARIES[name]}\n")
    return 0


_COMMANDS = {
    "sweep": _cmd_sweep,
    "max-distance": _cmd_max_distance,
    "calibrate": _cmd_calibrate,
    "fit-raman": _cmd_fit_raman,
    "presets": _cmd_presets,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(argv)
        return _COMMANDS[args.command](args)
    except ComputationError as exc:
        sys.stderr.write(f"qkdcoex: computation failed: {exc}\n")
        return 2
    except QkdCoexError as exc:
        sys.stderr.write(f"qkdcoex: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"qkdcoex: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
