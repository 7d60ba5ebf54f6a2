"""Two real processes hammering one disk-cache directory.

The contract under test (docs/ENGINE.md, hardened for the cluster's
per-shard namespaces being only a *convention*): readers never lock,
writers publish entries with write-to-temp + atomic ``os.replace``, and
a corrupt entry is recovered by recomputing and atomically overwriting
-- never by unlinking, which could race away another process's freshly
replaced good entry.  One process continuously mangles the cache entry
in place (torn-write bytes) while both processes keep re-reading it
with fresh engines; every single answer must still be correct, and the
directory must end with a clean, loadable entry.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import repro
from repro.engine import AnalysisEngine
from repro.kernels import all_kernels
from repro.machine.presets import dec_alpha

WORKER = r"""
import json, pathlib, random, sys, time

role, cache_dir, name, expected, seconds = sys.argv[1:6]
cache = pathlib.Path(cache_dir)
expected = tuple(json.loads(expected))
random.seed(role)

from repro.engine import AnalysisEngine
from repro.kernels import kernel_by_name
from repro.machine.presets import dec_alpha

nest = kernel_by_name(name).nest
machine = dec_alpha()
deadline = time.monotonic() + float(seconds)
iterations = errors = 0
while time.monotonic() < deadline:
    if role == "corruptor":
        for entry in cache.glob("tables-*.json"):
            try:
                text = entry.read_text()
                # Torn in-place write: what a crashed non-atomic writer
                # would leave behind.
                entry.write_text(text[: random.randrange(0, len(text))])
            except OSError:
                pass
    # A fresh engine per iteration forces the disk path every time.
    engine = AnalysisEngine(disk_cache=True, cache_dir=cache)
    result = engine.optimize(nest, machine, bound=3)
    if tuple(result.unroll) != expected:
        print(f"{role}: wrong answer {result.unroll}", file=sys.stderr)
        sys.exit(1)
    errors += engine.metrics.counter("cache.tables.disk_error")
    iterations += 1
print(json.dumps({"role": role, "iterations": iterations,
                  "disk_errors": errors}))
"""

def test_concurrent_corruption_and_recompute(tmp_path):
    cache = tmp_path / "cache"
    machine = dec_alpha()
    kernel = all_kernels()[0]
    seed = AnalysisEngine(disk_cache=True, cache_dir=cache)
    expected = seed.optimize(kernel.nest, machine, bound=3).unroll
    assert list(cache.glob("tables-*.json"))

    script = tmp_path / "worker.py"
    script.write_text(WORKER)
    src_root = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    procs = [
        subprocess.Popen(
            [sys.executable, str(script), role, str(cache),
             kernel.name, json.dumps(list(expected)), "3.0"],
            env={"PYTHONPATH": src_root, "PATH": "/usr/bin:/bin"},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for role in ("corruptor", "reader")]
    results = {}
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, f"worker failed: {err}"
        stats = json.loads(out.splitlines()[-1])
        results[stats["role"]] = stats

    # Both processes made real progress and the corruptor really did
    # force corrupt-entry recoveries.
    assert results["reader"]["iterations"] >= 3
    assert results["corruptor"]["iterations"] >= 3
    assert (results["reader"]["disk_errors"]
            + results["corruptor"]["disk_errors"]) >= 1

    # The directory converged to a clean, loadable entry.
    entries = list(cache.glob("tables-*.json"))
    assert entries
    final = AnalysisEngine(disk_cache=True, cache_dir=cache)
    assert final.optimize(kernel.nest, machine, bound=3).unroll == expected
