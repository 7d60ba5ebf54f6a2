"""Engine throughput: cold vs warm cache, nests/sec.

The engine's claims, measured on the 19 Table 2 kernels:

* **parity** -- ``optimize_many`` returns byte-identical unroll vectors to
  sequential :func:`repro.unroll.optimize.choose_unroll`;
* **warm cache** -- a rerun on the same engine answers >= 90% of table
  queries from the memo and finishes measurably faster.

Runs under pytest (``pytest benchmarks/bench_engine_throughput.py``) and
as a standalone script for the CI smoke job::

    python benchmarks/bench_engine_throughput.py --quick

Both modes write ``results/engine_throughput.txt`` and the metrics JSON
``results/engine_throughput.json``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

_REPO = pathlib.Path(__file__).resolve().parent.parent
if str(_REPO / "src") not in sys.path:
    sys.path.insert(0, str(_REPO / "src"))

from repro import obs
from repro.engine import AnalysisEngine
from repro.engine.metrics import delta
from repro.kernels import all_kernels
from repro.machine.presets import dec_alpha
from repro.unroll.optimize import choose_unroll

def _timed_batch(engine: AnalysisEngine, nests, machine, bound: int):
    """One optimize_many run plus the cache-counter delta it contributed."""
    before = dict(engine.metrics.counters)
    report = engine.optimize_many(nests, machine, bound=bound)
    counters = delta(before, engine.metrics.counters)
    hits = counters.get("cache.tables.hit", 0)
    misses = counters.get("cache.tables.miss", 0)
    probes = hits + misses
    return report, {
        "wall_time_s": report.wall_time_s,
        "nests_per_sec": report.nests_per_sec,
        "failures": len(report.failures),
        "tables_hit_rate": hits / probes if probes else 0.0,
        "counters": counters,
    }

def run_throughput(bound: int = 4, quick: bool = False) -> dict:
    """The full experiment; returns the JSON-ready payload."""
    if quick:
        bound = 3
    kernels = all_kernels()
    nests = [kernel.nest for kernel in kernels]
    machine = dec_alpha()

    t0 = time.monotonic()
    sequential = [choose_unroll(nest, machine, bound=bound).unroll
                  for nest in nests]
    seq_time = time.monotonic() - t0

    engine = AnalysisEngine()
    cold_report, cold = _timed_batch(engine, nests, machine, bound)
    warm_report, warm = _timed_batch(engine, nests, machine, bound)

    cold_vectors = [item.result.unroll for item in cold_report.items]
    warm_vectors = [item.result.unroll for item in warm_report.items]
    mismatches = [kernels[i].name for i, (a, b) in
                  enumerate(zip(sequential, cold_vectors)) if a != b]

    return {
        "bound": bound,
        "kernels": len(nests),
        "sequential": {"wall_time_s": seq_time,
                       "nests_per_sec": len(nests) / seq_time
                       if seq_time else 0.0},
        "cold": cold,
        "warm": warm,
        "parity": {"matches": not mismatches and
                              cold_vectors == warm_vectors,
                   "mismatches": mismatches},
        "metrics": engine.metrics.snapshot(),
    }

def accepted(payload: dict) -> bool:
    """Parity (cold and warm), the warm hit-rate bar, warm faster than
    cold, and no failed item."""
    return (payload["parity"]["matches"]
            and payload["warm"]["tables_hit_rate"] >= 0.90
            and payload["warm"]["wall_time_s"] < payload["cold"]["wall_time_s"]
            and payload["cold"]["failures"] == 0)

def format_throughput(payload: dict) -> str:
    lines = [f"Engine throughput over the {payload['kernels']} Table 2 "
             f"kernels (bound {payload['bound']})",
             f"{'configuration':<22s} {'wall':>8s} {'nests/s':>8s} "
             f"{'tables hit rate':>16s}"]

    def row(label, stats, rate=None):
        rate_text = f"{100 * rate:>14.0f}%" if rate is not None else \
            f"{'-':>15s}"
        lines.append(f"{label:<22s} {stats['wall_time_s']:>7.3f}s "
                     f"{stats['nests_per_sec']:>8.1f} {rate_text}")

    row("sequential (no cache)", payload["sequential"])
    row("engine, cold", payload["cold"], payload["cold"]["tables_hit_rate"])
    row("engine, warm", payload["warm"], payload["warm"]["tables_hit_rate"])
    lines.append("")
    lines.append(f"parity with choose_unroll: {payload['parity']['matches']}")
    speedup = (payload["cold"]["wall_time_s"] /
               payload["warm"]["wall_time_s"]
               if payload["warm"]["wall_time_s"] else float("inf"))
    lines.append(f"warm speedup over cold: {speedup:.1f}x")
    return "\n".join(lines)

def write_results(payload: dict, results_dir: pathlib.Path) -> None:
    results_dir.mkdir(exist_ok=True)
    (results_dir / "engine_throughput.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")
    (results_dir / "engine_throughput.txt").write_text(
        format_throughput(payload) + "\n")

# -- pytest mode --------------------------------------------------------------

def test_engine_throughput(results_dir):
    payload = run_throughput(quick=True)
    write_results(payload, results_dir)
    print("\n" + format_throughput(payload))
    assert payload["parity"]["matches"], payload["parity"]["mismatches"]
    assert accepted(payload)

# -- script mode --------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller bound (CI smoke)")
    parser.add_argument("--bound", type=int, default=4)
    parser.add_argument("--results-dir", default=str(_REPO / "results"))
    parser.add_argument("--emit-trace", action="store_true",
                        help="record repro.obs spans and write the Chrome "
                             "trace next to the results JSON")
    parser.add_argument("--profile", action="store_true",
                        help="cProfile the engine stages and write the "
                             "top-N summary next to the results JSON")
    args = parser.parse_args(argv)

    results_dir = pathlib.Path(args.results_dir)
    if args.emit_trace:
        obs.configure(enabled=True)
    if args.profile:
        obs.set_profiler(obs.Profiler(enabled=True))

    with obs.span("bench.engine_throughput", quick=args.quick):
        payload = run_throughput(bound=args.bound, quick=args.quick)
    write_results(payload, results_dir)

    if args.emit_trace:
        trace_path = results_dir / "engine_throughput.trace.json"
        obs.get_tracer().write_chrome(trace_path)
        print(f"[trace] {trace_path} "
              f"({len(obs.get_tracer())} spans)")
    if args.profile:
        profile_path = obs.get_profiler().write(
            results_dir / "engine_throughput.profile.json")
        print(f"[profile] {profile_path}")
    print(format_throughput(payload))
    ok = accepted(payload)
    print(f"\nacceptance: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1

if __name__ == "__main__":
    sys.exit(main())
