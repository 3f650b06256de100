"""qkdcoex benchmark.

    python3 qkdbench/run.py --workload curves-csv --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. Each call runs one workload (see
BENCHMARK.json and qkdbench/README.md) in a fresh child interpreter that
imports the checkout's own `src/qkdcoex`, prints the environment and every
metric with its unit, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones from a traced
run. Generated files live in .qkdbench_tmp/ and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 170


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="qkdcoex benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (root / "src" / "qkdcoex" / "__init__.py").is_file():
        sys.stderr.write("qkdbench: run from the root of a qkdcoex checkout "
                         "(src/qkdcoex not found)\n")
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    tmp_base = root / ".qkdbench_tmp"
    tmp_base.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_base))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--tmp", str(tmp),
             "--result", str(tmp / "result.json")],
            cwd=root, env=env, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(f"qkdbench: workload process exited with "
                             f"{proc.returncode}\n")
            return 1
        result = json.loads((tmp / "result.json").read_text(encoding="utf-8"))
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"qkdbench: workload took over {CHILD_TIMEOUT_S} s\n")
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_base.rmdir()
        except OSError:
            pass

    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        sys.stderr.write(f"qkdbench: metrics not measured: {missing}\n")
        return 1
    env_info = result["env"]
    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("# " + "  ".join(f"{k} {v}" for k, v in env_info.items()))
    print(f"# {result['rounds']} rounds of {result['ops_per_round']} operations; "
          f"attempted {result['attempted']}, failed {result['failed']}")
    print(f"# pace: the reference load took {result['pace_ms']:.4f} ms (median); "
          f"times are at its nominal {result['pace_nominal_ms']:g} ms")
    metrics = {}
    for m in wanted:
        value = result["metrics"][m["name"]]
        print(f"{m['name']:34s} {value:16.6f} {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
