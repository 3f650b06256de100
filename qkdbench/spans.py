"""Outside-in span recorder for the traced run.

The program is not changed: `install` replaces public functions with
timing wrappers where their callers look them up (a module attribute read
at call time) and `uninstall` puts the originals back. Each span records
its name, start, end and parent. Spans of one top-level call are kept in
memory until that call returns, then folded into per-name call counts and
self time (duration minus the time covered by its child spans), so memory
stays bounded by one operation.
"""

from __future__ import annotations

import functools
import importlib
import re
import statistics
import subprocess
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute) -> span name. A function imported into several
# modules is wrapped in each module that calls it.
TARGETS = {
    ("qkdcoex.cli", "main"): "cli.main",
    ("qkdcoex.cli", "load_scenario"): "config.load_scenario",
    ("qkdcoex.cli", "load_sweep"): "config.load_sweep",
    ("qkdcoex.cli", "run_sweep"): "scenario.run_sweep",
    ("qkdcoex.cli", "emit_results"): "scenario.emit_results",
    ("qkdcoex.cli", "rows_to_csv"): "scenario.rows_to_csv",
    ("qkdcoex.cli", "rows_to_json"): "scenario.rows_to_json",
    ("qkdcoex.cli", "max_secure_distance"): "scenario.max_secure_distance",
    ("qkdcoex.cli", "calibrate"): "scenario.calibrate",
    ("qkdcoex", "calibrate"): "scenario.calibrate",
    ("qkdcoex.scenario", "evaluate_at"): "scenario.evaluate_at",
    ("qkdcoex.scenario", "channel_state"): "scenario.channel_state",
    ("qkdcoex.scenario", "rows_to_csv"): "scenario.rows_to_csv",
    ("qkdcoex.scenario", "rows_to_json"): "scenario.rows_to_json",
    ("qkdcoex.scenario", "total_loss_db"): "link.total_loss_db",
    ("qkdcoex.scenario", "srs_noise_rate_cps"): "raman.srs_noise_rate_cps",
    ("qkdcoex.scenario", "background_yield"): "decoy.background_yield",
    ("qkdcoex.scenario", "key_rate_details"): "decoy.key_rate_details",
    ("qkdcoex.scenario", "find_rate_cliff"): "decoy.find_rate_cliff",
}
RATE_FN_CALLS = "search.rate_evals"


class Recorder:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._spans = []      # [name, start, end, parent index]
        self._stack = []
        self._saved = []

    def span(self, name, fn):
        spans, stack = self._spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
                if not stack:
                    self._fold()
        return wrapper

    def _fold(self):
        child = [0.0] * len(self._spans)
        for name, start, end, parent in self._spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), covered in zip(self._spans, child):
            self.calls[name] += 1
            self.self_s[name] += end - start - covered
        self._spans.clear()

    def _counting_rate_fn(self, search):
        """`search` with its rate function (first argument) counted."""
        def counted_search(rate_fn, *args, **kwargs):
            def counted(*a, **k):
                self.counts[RATE_FN_CALLS] += 1
                return rate_fn(*a, **k)
            return search(counted, *args, **kwargs)
        return counted_search

    def install(self):
        for (module, attr), name in TARGETS.items():
            mod = importlib.import_module(module)
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            self._saved.append((mod, attr, fn))
            if attr == "find_rate_cliff":
                fn = self._counting_rate_fn(fn)
            setattr(mod, attr, self.span(name, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)")


def import_times(cwd, runs: int = 5) -> dict:
    """Median cumulative import time of numpy and of qkdcoex without numpy,
    from `python -X importtime` in fresh interpreters."""
    numpy_s, own_s = [], []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import qkdcoex, qkdcoex.cli"],
            cwd=cwd, capture_output=True, text=True, timeout=60,
            check=True)
        cumulative = {}
        for m in _IMPORT_LINE.finditer(proc.stderr):
            top_level = len(m.group(3)) == 1
            if m.group(4) == "numpy" or (top_level and m.group(4).startswith("qkdcoex")):
                cumulative[m.group(4)] = int(m.group(2)) * 1e-6
        total = cumulative.get("qkdcoex", 0.0) + cumulative.get("qkdcoex.cli", 0.0)
        numpy_s.append(cumulative.get("numpy", 0.0))
        own_s.append(total - numpy_s[-1])
    return {"import.numpy_s": statistics.median(numpy_s),
            "import.qkdcoex_s": statistics.median(own_s)}
