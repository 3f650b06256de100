"""Runs one workload in a fresh interpreter and writes its result as JSON.

Started by run.py with the checkout's `src` on PYTHONPATH; not meant to be
run by hand. All load comes from this one thread; the only other processes
are fresh interpreters started one at a time to time imports.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import checks
import inputs
import reference
import spans

SETUP_SAMPLES = 12    # fresh-interpreter imports per run, spread over it
_IMPORT_CODE = ("import time; t = time.perf_counter(); "
                "import qkdcoex, qkdcoex.cli; print(time.perf_counter() - t)")

# Machine-speed reference ("pace"). The speed of one Python thread on a
# shared host moves by up to 2x in stretches of seconds to minutes, far more
# than any bound a later change could be judged by. So a fixed load of the
# benchmark's own code (the reference model on a fixed SMF link; nothing of
# qkdcoex) is timed before and after every timed call, and each time is
# reported at the speed where that load takes PACE_NOMINAL_S:
#     reported = measured * PACE_NOMINAL_S / mean(pace before, pace after)
# PACE_NOMINAL_S is fixed, so a slower program still reads slower.
PACE_LINK = {
    "alpha_q": 0.19, "alpha_c": 0.192, "il_q": [0.49, 0.36], "il_c": [0.49, 0.36],
    "rho": 12076.0, "alpha_r": 0.19, "divisor": "clock", "launch_dbm": -2.6,
    "adaptive": False, "sens_dbm": -33.0, "mu": 0.4, "nu": 0.2, "p_mu": 0.75,
    "clock": 625e6, "ed": 0.033, "f": 1.16, "q_sift": 0.5, "eff": 0.1,
    "gate_hz": 1.25e9, "dark": 3e-7, "n_det": 4,
}
PACE_DISTANCES = [0.75 * i for i in range(1, 81)]
PACE_NOMINAL_S = 1.0e-3


def pace_seconds() -> float:
    """Wall time of the fixed reference load, with the collector off so
    that the program's heap does not leak into it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for d in PACE_DISTANCES:
            reference.point(PACE_LINK, d)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def import_seconds(root: Path) -> float:
    """Time a fresh interpreter takes to import qkdcoex and qkdcoex.cli."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_CODE], cwd=root,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


class Runner:
    """Runs whole rounds of the operations, timing each call and checking
    its output outside the timed region. Times are kept at the nominal pace
    (see PACE_NOMINAL_S)."""

    def __init__(self, qkdcoex, ops: list[dict], root: Path):
        self.qkdcoex = qkdcoex
        self.ops = ops
        self.root = root
        self.setup_samples: list[float] = []
        self.grid_min: dict[int, float] = {}
        self.attempted = self.failed = 0
        self.wrong = 0    # failed by a wrong output, not by raising
        self.paces = [pace_seconds() for _ in range(3)]

    def _at_pace(self, elapsed: float) -> float:
        """`elapsed`, just measured, at the nominal pace: the pace is taken
        again now and averaged with the one taken before the call."""
        before = self.paces[-1]
        self.paces.append(pace_seconds())
        return elapsed * PACE_NOMINAL_S * 2.0 / (before + self.paces[-1])

    def _call(self, op: dict):
        """Returns (seconds at the nominal pace, problems); raises if the
        call does."""
        q = self.qkdcoex
        if op["kind"] == "calibrate":
            scenarios = [q.get_preset(n) for n in op["presets"]]
            targets = [q.CalibrationTarget(*t) for t in op["targets"]]
            start = perf_counter()
            try:
                report = q.calibrate(scenarios, targets)
            finally:
                elapsed = self._at_pace(perf_counter() - start)
            if id(op) not in self.grid_min:
                self.grid_min[id(op)] = reference.grid_minimum(
                    op["links"], [tuple(t) for t in op["targets"]])
            return elapsed, checks.check_calibration(op, report, self.grid_min[id(op)])
        start = perf_counter()
        try:
            code = q.cli.main(list(op["argv"]))
        finally:
            elapsed = self._at_pace(perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"exit code {code}")
        check = checks.check_sweep if op["kind"] == "sweep" else checks.check_max_distance
        return elapsed, check(op)

    def run(self, seconds: float | None = None, rounds: int | None = None,
            sample_setup: bool = False) -> dict:
        """Whole rounds until `seconds` of wall time have passed, or exactly
        `rounds` rounds. With `sample_setup`, fresh-interpreter import times
        are taken between operations, evenly over the `seconds`."""
        stats = {"rounds": 0, "op_s": 0.0, "rows": 0,
                 "times": defaultdict(list), "bytes": defaultdict(int)}
        start = next_sample = perf_counter()
        while True:
            for op in self.ops:
                if sample_setup and perf_counter() >= next_sample:
                    self.setup_samples.append(self._at_pace(import_seconds(self.root)))
                    next_sample += seconds / SETUP_SAMPLES
                self.attempted += 1
                raised = False
                try:
                    elapsed, problems = self._call(op)
                except (Exception, SystemExit) as exc:
                    elapsed, problems, raised = 0.0, [f"raised {exc!r}"], True
                if problems:
                    self.failed += 1
                    self.wrong += not raised
                    sys.stderr.write(f"FAILED {op['kind']} {op.get('argv', '')}: "
                                     + "; ".join(problems[:checks.MAX_REPORTED]) + "\n")
                if raised:
                    continue
                stats["op_s"] += elapsed
                stats["times"][op["kind"]].append(elapsed)
                if op["kind"] == "sweep":
                    stats["bytes"][op["format"]] += os.path.getsize(op["out"])
                    lo, hi, step = op["grid"]
                    stats["rows"] += round((hi - lo) / step) + 1
            stats["rounds"] += 1
            if rounds is not None:
                if stats["rounds"] >= rounds:
                    return stats
            elif perf_counter() - start >= seconds:
                return stats


def end_to_end(stats: dict, setup_samples: list[float]) -> dict:
    t = stats["times"]
    sweep_s = sum(t["sweep"])
    return {
        "setup_s": statistics.median(setup_samples),
        "rows_per_s": stats["rows"] / sweep_s,
        "scenarios_per_s": len(t["sweep"]) / sweep_s,
        "max_distance_ms": 1e3 * statistics.median(t["max-distance"]),
        "calibrate_ms": 1e3 * statistics.median(t["calibrate"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


SELF_TIMES = ("cli.main", "config.load_scenario", "config.load_sweep",
              "scenario.run_sweep", "scenario.evaluate_at",
              "scenario.channel_state", "link.total_loss_db",
              "raman.srs_noise_rate_cps", "decoy.background_yield",
              "decoy.key_rate_details", "scenario.emit_results",
              "scenario.rows_to_csv", "scenario.rows_to_json",
              "scenario.max_secure_distance", "decoy.find_rate_cliff",
              "scenario.calibrate")
CALL_COUNTS = ("scenario.channel_state", "link.total_loss_db",
               "decoy.key_rate_details", "scenario.calibrate")


def per_layer(rec: spans.Recorder, base: dict, traced: dict,
              imports: dict, at_pace: float) -> dict:
    """Per-round self times and counts of the traced pass. Self times are
    multiplied by `at_pace`, the nominal over the median pace of that pass."""
    n = traced["rounds"]
    out = dict(imports)
    for name in SELF_TIMES:
        out[f"{name}.self_s"] = rec.self_s[name] * at_pace / n
    for name in CALL_COUNTS:
        out[f"{name}.calls"] = rec.calls[name] / n
    out["search.rate_evals"] = rec.counts[spans.RATE_FN_CALLS] / n
    out["emit.csv_bytes"] = traced["bytes"]["csv"] / n
    out["emit.json_bytes"] = traced["bytes"]["json"] / n
    out["trace.overhead_s"] = (traced["op_s"] - base["op_s"]) / n
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()
    root = Path.cwd()

    import_seconds(root)          # leaves the bytecode cache warm
    imports = {}
    if args.trace:
        before = pace_seconds()
        imports = spans.import_times(root)
        at_pace = PACE_NOMINAL_S * 2.0 / (before + pace_seconds())
        imports = {k: v * at_pace for k, v in imports.items()}
    import qkdcoex
    import qkdcoex.cli
    if Path(qkdcoex.__file__).resolve().parent != (root / "src" / "qkdcoex").resolve():
        sys.stderr.write(f"qkdcoex imported from {qkdcoex.__file__}, not this checkout\n")
        return 2

    runner = Runner(qkdcoex, inputs.build_round(args.workload, args.seed, args.tmp),
                    root)
    if args.trace:
        base = runner.run(seconds=args.seconds / 2)
        first = len(runner.paces) - 1
        rec = spans.Recorder()
        rec.install()
        try:
            traced = runner.run(rounds=base["rounds"])
        finally:
            rec.uninstall()
        at_pace = PACE_NOMINAL_S / statistics.median(runner.paces[first:])
        metrics = per_layer(rec, base, traced, imports, at_pace)
        rounds = base["rounds"] + traced["rounds"]
    else:
        stats = runner.run(seconds=args.seconds, sample_setup=True)
        metrics = end_to_end(stats, runner.setup_samples)
        rounds = stats["rounds"]

    import numpy
    result = {
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
        "rounds": rounds,
        "ops_per_round": len(runner.ops),
        "pace_ms": 1e3 * statistics.median(runner.paces),
        "pace_nominal_ms": 1e3 * PACE_NOMINAL_S,
        "env": {"python": platform.python_version(), "numpy": numpy.__version__,
                "backend": qkdcoex.backend_name(), "nproc": os.cpu_count(),
                "usable_cpus": len(os.sched_getaffinity(0)),
                "machine": platform.machine()},
    }
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
