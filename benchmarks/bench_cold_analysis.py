"""Cold-path analysis throughput of ``choose_unroll``.

The cold path -- dependence graph, locality scores, table construction and
the balance search, with every cache empty -- is what a compiler pays on
first sight of a nest.  This benchmark times it over the 19 Table 2
kernels on ``dec_alpha``.

Every kernel must return the unroll vector and breakdown frozen in
``tests/golden/table2_decisions.json`` (the exactness claim).  The
acceptance bar asserts the pass is at least ``SPEEDUP_BAR`` times faster
than ``SEED_REFERENCE_NESTS_PER_SEC``, the throughput the original
union-find and Fraction-elimination algorithms measured at bound 4.
Per-stage p95 latencies come from a cold
:class:`repro.engine.AnalysisEngine` pass over the same corpus.

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
from dataclasses import fields
from fractions import Fraction

_REPO = pathlib.Path(__file__).resolve().parent.parent
if str(_REPO / "src") not in sys.path:
    sys.path.insert(0, str(_REPO / "src"))

from repro.balance.loop_balance import BalanceBreakdown
from repro.engine import AnalysisEngine
from repro.kernels import all_kernels
from repro.machine.presets import dec_alpha
from repro.unroll.optimize import choose_unroll

GOLDEN_PATH = _REPO / "tests" / "golden" / "table2_decisions.json"

#: Required throughput ratio over the seed reference (the acceptance bar).
SPEEDUP_BAR = 2.0

#: Nests/sec of the original algorithms (union-find table counts, Fraction
#: elimination, pairwise locality scores, unpruned search) over these 19
#: kernels at bound 4, frozen from ``benchmarks/baselines/cold_analysis.json``
#: when those algorithms were deleted; the bar divides by it.
SEED_REFERENCE_NESTS_PER_SEC = 34.81081402626408
SEED_REFERENCE_BOUND = 4

#: Engine stages whose p95 wall time the regression gate tracks.
TRACKED_STAGES = ("dependence_graph", "locality", "build_tables", "search")

def _run_corpus(nests, machine, bound: int):
    """One full cold pass over the corpus; returns (results, wall time)."""
    t0 = time.monotonic()
    results = [choose_unroll(nest, machine, bound=bound) for nest in nests]
    return results, time.monotonic() - t0

def _best_of(nests, machine, bound: int, repetitions: int):
    """Best wall time over ``repetitions`` passes (damps runner noise)."""
    best_results, best_time = _run_corpus(nests, machine, bound)
    for _ in range(repetitions - 1):
        results, wall = _run_corpus(nests, machine, bound)
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

def golden_mismatches(kernels, results, bound: int) -> list[str] | None:
    """Kernels whose decision differs from the ``dec_alpha`` golden entry
    at ``bound``, or None when the golden file does not cover ``bound``."""
    golden = {entry["kernel"]: entry
              for entry in json.loads(GOLDEN_PATH.read_text())
              if entry["machine"] == "dec_alpha" and entry["bound"] == bound}
    if not golden:
        return None
    mismatches = []
    for kernel, result in zip(kernels, results):
        entry = golden.get(kernel.name)
        if entry is None or list(result.unroll) != entry["unroll"] or any(
                getattr(result.breakdown, field.name) != Fraction(
                    entry[field.name]) for field in fields(BalanceBreakdown)):
            mismatches.append(kernel.name)
    return mismatches

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
    _run_corpus(nests, machine, min(bound, 2))

    results, wall = _best_of(nests, machine, bound, repetitions)
    mismatches = golden_mismatches(kernels, results, bound)

    count = len(nests)
    fast_nps = count / wall if wall else 0.0
    reference = (SEED_REFERENCE_NESTS_PER_SEC
                 if bound == SEED_REFERENCE_BOUND else None)
    return {
        "bound": bound,
        "kernels": count,
        "repetitions": repetitions,
        "fast": {"wall_time_s": wall, "nests_per_sec": fast_nps},
        "seed_reference_nests_per_sec": reference,
        "speedup_vs_reference": (fast_nps / reference
                                 if reference else None),
        "parity": {"matches": None if mismatches is None else not mismatches,
                   "mismatches": mismatches or []},
        "stage_p95_s": _stage_p95s(nests, machine, bound),
    }

def acceptance(payload: dict) -> tuple[bool, list[str]]:
    """The hard bars: the golden decisions, and >= SPEEDUP_BAR x over the
    frozen seed reference (skipped, with a note, at another bound)."""
    problems = []
    if payload["parity"]["matches"] is None:
        problems.append(f"no golden decisions at bound {payload['bound']} "
                        f"in {GOLDEN_PATH.name}")
    elif not payload["parity"]["matches"]:
        problems.append(
            f"parity mismatches: {payload['parity']['mismatches']}")
    speedup = payload["speedup_vs_reference"]
    if speedup is None:
        print("[cold_analysis] the seed reference was measured at bound "
              f"{SEED_REFERENCE_BOUND}, not {payload['bound']}; speedup bar "
              "not enforced")
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
    stats = payload["fast"]
    lines.append(f"{'choose_unroll':<18s} {stats['wall_time_s']:>7.3f}s "
                 f"{stats['nests_per_sec']:>8.1f}")
    lines.append("")
    if payload["speedup_vs_reference"] is not None:
        lines.append(f"speedup vs frozen reference "
                     f"({payload['seed_reference_nests_per_sec']:.1f} "
                     f"nests/s): {payload['speedup_vs_reference']:.2f}x "
                     f"(bar {SPEEDUP_BAR:.1f}x)")
    lines.append(f"golden decisions (unroll + breakdown): "
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
