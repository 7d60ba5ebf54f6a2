"""Cold-path analysis throughput: optimized vs seed ``choose_unroll``.

The cold path -- dependence graph, locality scores, table construction and
the balance search, with every cache empty -- is what a compiler pays on
first sight of a nest.  This benchmark times it over the 19 Table 2
kernels twice:

* **fast** -- the optimized pipeline (summed-area tables, keyed location
  classes, Bareiss elimination, the closed-form SIV kernel, pruned search);
* **seed** -- the retained original algorithms
  (``repro.fastpath.seed_algorithms()`` with ``fast=False, prune=False``),
  the faithful pre-optimization reference.

Both passes must return identical unroll vectors and breakdowns for every
kernel (the exactness claim).  The acceptance bar asserts the fast pass is
at least ``SPEEDUP_BAR`` times faster than the *frozen* seed reference
recorded in ``benchmarks/baselines/cold_analysis.json`` (refreshed only by
``make bench-baseline``); the live seed measurement feeds the regression
gate and the next baseline refresh.  Per-stage p95 latencies come from a
cold :class:`repro.engine.AnalysisEngine` pass over the same corpus.

Runs under pytest (``pytest benchmarks/bench_cold_analysis.py``) and as a
standalone script for the CI smoke job::

    python benchmarks/bench_cold_analysis.py --quick

Both modes write ``results/cold_analysis.txt`` and the metrics JSON
``results/cold_analysis.json``.
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

from repro.engine import AnalysisEngine
from repro.fastpath import seed_algorithms
from repro.kernels import all_kernels
from repro.machine.presets import dec_alpha
from repro.unroll.optimize import choose_unroll

BASELINE_PATH = pathlib.Path(__file__).resolve().parent / "baselines" / \
    "cold_analysis.json"

#: Required fast/seed-reference throughput ratio (the PR's acceptance bar).
SPEEDUP_BAR = 2.0

#: Engine stages whose p95 wall time the regression gate tracks.
TRACKED_STAGES = ("dependence_graph", "locality", "build_tables", "search")

def _run_corpus(nests, machine, bound: int, seed_mode: bool):
    """One full cold pass over the corpus; returns (results, wall time)."""
    t0 = time.monotonic()
    if seed_mode:
        with seed_algorithms():
            results = [choose_unroll(nest, machine, bound=bound,
                                     prune=False, fast=False)
                       for nest in nests]
    else:
        results = [choose_unroll(nest, machine, bound=bound)
                   for nest in nests]
    return results, time.monotonic() - t0

def _best_of(nests, machine, bound: int, repetitions: int, seed_mode: bool):
    """Best wall time over ``repetitions`` passes (damps runner noise)."""
    best_results, best_time = _run_corpus(nests, machine, bound, seed_mode)
    for _ in range(repetitions - 1):
        results, wall = _run_corpus(nests, machine, bound, seed_mode)
        if wall < best_time:
            best_results, best_time = results, wall
    return best_results, best_time

def _stage_p95s(nests, machine, bound: int) -> dict:
    """Per-stage p95 seconds from one cold engine pass over the corpus."""
    engine = AnalysisEngine()
    for nest in nests:
        engine.optimize(nest, machine, bound=bound)
    stages = engine.metrics.snapshot()["stages"]
    return {name: stages[f"stage.{name}"]["p95_s"]
            for name in TRACKED_STAGES if f"stage.{name}" in stages}

def frozen_seed_reference(bound: int) -> float | None:
    """The committed seed-path nests/sec for this bound, or None."""
    try:
        doc = json.loads(BASELINE_PATH.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    metrics = doc.get("metrics", {})
    if metrics.get("bound") != bound:
        return None  # measured under a different search bound
    return metrics.get("seed_nests_per_sec")

def run_cold_analysis(bound: int = 4, repetitions: int = 5,
                      quick: bool = False) -> dict:
    """The full experiment; returns the JSON-ready payload.

    Unlike the other benchmarks, ``quick`` keeps the full search bound --
    the whole corpus analyzes in well under a second, and the speedup bar
    is calibrated at the default bound (smaller boxes shrink the
    summed-area advantage, so measuring them would gate a different
    claim).  Quick mode only trims repetitions.
    """
    if quick:
        repetitions = 3
    kernels = all_kernels()
    nests = [kernel.nest for kernel in kernels]
    machine = dec_alpha()

    # Warm-up: imports, bytecode, the interpreter's small-int caches.
    _run_corpus(nests, machine, min(bound, 2), seed_mode=False)

    fast_results, fast_time = _best_of(nests, machine, bound, repetitions,
                                       seed_mode=False)
    seed_results, seed_time = _best_of(nests, machine, bound, repetitions,
                                       seed_mode=True)

    mismatches = [kernels[i].name
                  for i, (a, b) in enumerate(zip(fast_results, seed_results))
                  if a.unroll != b.unroll or a.breakdown != b.breakdown]

    count = len(nests)
    fast_nps = count / fast_time if fast_time else 0.0
    seed_nps = count / seed_time if seed_time else 0.0
    reference = frozen_seed_reference(bound)
    return {
        "bound": bound,
        "kernels": count,
        "repetitions": repetitions,
        "fast": {"wall_time_s": fast_time, "nests_per_sec": fast_nps},
        "seed": {"wall_time_s": seed_time, "nests_per_sec": seed_nps},
        "speedup_vs_seed": fast_nps / seed_nps if seed_nps else 0.0,
        "seed_reference_nests_per_sec": reference,
        "speedup_vs_reference": (fast_nps / reference
                                 if reference else None),
        "parity": {"matches": not mismatches, "mismatches": mismatches},
        "stage_p95_s": _stage_p95s(nests, machine, bound),
    }

def acceptance(payload: dict) -> tuple[bool, list[str]]:
    """The hard bars: exact parity, and >= SPEEDUP_BAR x over the frozen
    seed reference (skipped, with a note, before a baseline exists)."""
    problems = []
    if not payload["parity"]["matches"]:
        problems.append(
            f"parity mismatches: {payload['parity']['mismatches']}")
    speedup = payload["speedup_vs_reference"]
    if speedup is None:
        print("[cold_analysis] no frozen seed reference for bound "
              f"{payload['bound']}; speedup bar not enforced "
              "(run `make bench-baseline` to record one)")
    elif speedup < SPEEDUP_BAR:
        problems.append(
            f"speedup {speedup:.2f}x below the {SPEEDUP_BAR:.1f}x bar "
            f"(fast {payload['fast']['nests_per_sec']:.1f} nests/s vs "
            f"frozen seed {payload['seed_reference_nests_per_sec']:.1f})")
    return not problems, problems

def format_cold_analysis(payload: dict) -> str:
    lines = [f"Cold-path analysis over the {payload['kernels']} Table 2 "
             f"kernels (bound {payload['bound']}, best of "
             f"{payload['repetitions']})",
             f"{'pipeline':<18s} {'wall':>8s} {'nests/s':>8s}"]
    for label, key in (("fast (optimized)", "fast"), ("seed (original)",
                                                      "seed")):
        stats = payload[key]
        lines.append(f"{label:<18s} {stats['wall_time_s']:>7.3f}s "
                     f"{stats['nests_per_sec']:>8.1f}")
    lines.append("")
    lines.append(f"live speedup vs seed: {payload['speedup_vs_seed']:.2f}x")
    if payload["speedup_vs_reference"] is not None:
        lines.append(f"speedup vs frozen reference "
                     f"({payload['seed_reference_nests_per_sec']:.1f} "
                     f"nests/s): {payload['speedup_vs_reference']:.2f}x "
                     f"(bar {SPEEDUP_BAR:.1f}x)")
    lines.append(f"parity (unroll + breakdown): "
                 f"{payload['parity']['matches']}")
    lines.append("")
    lines.append("engine stage p95:")
    for name, p95 in sorted(payload["stage_p95_s"].items()):
        lines.append(f"  {name:<18s} {1000 * p95:>8.2f} ms")
    return "\n".join(lines)

def write_results(payload: dict, results_dir: pathlib.Path) -> None:
    results_dir.mkdir(exist_ok=True)
    (results_dir / "cold_analysis.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")
    (results_dir / "cold_analysis.txt").write_text(
        format_cold_analysis(payload) + "\n")

# -- pytest mode --------------------------------------------------------------

def test_cold_analysis(results_dir):
    payload = run_cold_analysis(quick=True)
    write_results(payload, results_dir)
    print("\n" + format_cold_analysis(payload))
    ok, problems = acceptance(payload)
    assert ok, problems

# -- script mode --------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller search bound (CI smoke)")
    parser.add_argument("--bound", type=int, default=4)
    parser.add_argument("--repetitions", type=int, default=3)
    parser.add_argument("--results-dir", default=str(_REPO / "results"))
    args = parser.parse_args(argv)

    payload = run_cold_analysis(bound=args.bound,
                                repetitions=args.repetitions,
                                quick=args.quick)
    write_results(payload, pathlib.Path(args.results_dir))
    print(format_cold_analysis(payload))
    ok, problems = acceptance(payload)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    print(f"\nacceptance: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1

if __name__ == "__main__":
    sys.exit(main())
