"""Cross-nest UGS memoization: cold speedup, parity, streaming memory.

Three claims from the sub-structural cache (docs/PERFORMANCE.md):

* **cold speedup** -- a cold ``optimize_many`` over a seeded corpus with
  the UGS table cache runs >= 1.5x the fast path without it
  (``AnalysisEngine(ugs_cache=False)``; process CPU time, median of
  interleaved pairs), because distinct nests share uniformly generated
  sets up to translation and renaming;
* **parity** -- decisions are identical with and without the cache, and
  cache-served tables serialize bit-identically to fresh builds;
* **flat streaming memory** -- ``optimize_stream`` over a 10x larger
  corpus peaks at <= 1.25x the smaller corpus's traced heap (nothing
  materializes the corpus or the results).

Runs under pytest (``pytest benchmarks/bench_ugs_cache.py``) and as a
standalone script for the CI smoke job::

    python benchmarks/bench_ugs_cache.py --quick

Both modes write ``results/ugs_cache.txt`` and ``results/ugs_cache.json``
(consumed by the ``ugs_cache`` entry of ``benchmarks/regression.py``).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
import time
import tracemalloc

_REPO = pathlib.Path(__file__).resolve().parent.parent
if str(_REPO / "src") not in sys.path:
    sys.path.insert(0, str(_REPO / "src"))

from repro.corpus import CorpusConfig, iter_corpus
from repro.engine import AnalysisEngine
from repro.engine.ugscache import UgsTableCache
from repro.machine.presets import dec_alpha
from repro.unroll.serialize import tables_to_json
from repro.unroll.space import UnrollSpace
from repro.unroll.tables import build_tables

SPEEDUP_FLOOR = 1.5
PEAK_RATIO_CEILING = 1.25
SEED = 2026
BOUND = 4
#: Interleaved A/B pairs behind the cold speedup.  On a 2-core VM the
#: median of 11 spread 0.03 over three runs; the ratio of per-side best
#: wall times over 2 pairs spread 0.3.
REPEATS = 11

def _corpus(count: int):
    return iter_corpus(CorpusConfig(seed=SEED), count=count)

def _cold_run(nests, machine, ugs_cache: bool) -> tuple[list, dict]:
    """One cold ``optimize_many`` on a fresh engine."""
    engine = AnalysisEngine(ugs_cache=ugs_cache)
    t0, cpu0 = time.monotonic(), time.process_time()
    report = engine.optimize_many(nests, machine, bound=BOUND)
    cpu = time.process_time() - cpu0
    wall = time.monotonic() - t0
    counters = engine.metrics.snapshot()["counters"]
    hits = counters.get("cache.ugs.hit", 0)
    misses = counters.get("cache.ugs.miss", 0)
    decisions = [item.result.unroll if item.ok else None
                 for item in report.items]
    return decisions, {
        "wall_time_s": wall,
        "cpu_s": cpu,
        "nests_per_sec": len(nests) / wall if wall else 0.0,
        "failures": sum(1 for item in report.items if not item.ok),
        "ugs_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
    }

def _timed_cold_pair(count: int, machine, repeats: int = REPEATS
                     ) -> tuple[int, dict, dict, float]:
    """Interleaved cold A/B, without vs with the UGS cache: decision
    mismatches, each side's fastest run, and the speedup.

    The speedup is the median over ``repeats`` back-to-back pairs of the
    ratio of process CPU times.  Both runs are single-threaded and
    in-process, so CPU time is the work done: time spent descheduled on
    a busy host lands on neither side, and the median drops a pair that
    a neighbour or a GC pause skewed.  Decision parity is checked on
    every pair.
    """
    nests = list(_corpus(count))
    mismatches = 0
    base = cached = None
    ratios = []
    for _ in range(repeats):
        base_decisions, base_stats = _cold_run(nests, machine,
                                               ugs_cache=False)
        cached_decisions, cached_stats = _cold_run(nests, machine,
                                                   ugs_cache=True)
        mismatches += sum(1 for a, b in zip(base_decisions,
                                            cached_decisions) if a != b)
        ratios.append(base_stats["cpu_s"] / cached_stats["cpu_s"]
                      if cached_stats["cpu_s"] else float("inf"))
        if base is None or base_stats["cpu_s"] < base["cpu_s"]:
            base = base_stats
        if cached is None or cached_stats["cpu_s"] < cached["cpu_s"]:
            cached = cached_stats
    return mismatches, base, cached, statistics.median(ratios)

def _table_parity(count: int) -> dict:
    """Cache-served tables vs fresh builds, compared by serialization."""
    cache = UgsTableCache()
    mismatches = 0
    for nest in _corpus(count):
        dims = tuple(range(nest.depth - 1))
        space = UnrollSpace(nest.depth, dims, (BOUND - 1,) * len(dims))
        fresh = build_tables(nest, space)
        served = build_tables(nest, space, ugs_cache=cache)
        if tables_to_json(fresh) != tables_to_json(served):
            mismatches += 1
    return {"checked": count, "table_mismatches": mismatches}

def _streamed_peak(count: int, machine) -> dict:
    """Peak traced heap while consuming ``optimize_stream`` end to end.

    The corpus is generated lazily and every item is dropped after one
    field read, so the peak reflects the engine's *working set* -- the
    bounded LRUs plus the dedup window -- not the corpus size.  The
    engine is sized so every cache saturates well before the smaller
    corpus (64-entry memo LRUs, 256 UGS signatures, 128-item window):
    flatness then proves nothing accumulates per nest, rather than just
    that the default caps exceed both corpus sizes.
    """
    engine = AnalysisEngine(capacity=64)
    engine.ugs_cache.capacity = 256
    items = failures = 0
    tracemalloc.start()
    tracemalloc.reset_peak()
    t0 = time.monotonic()
    for item in engine.optimize_stream(_corpus(count), machine,
                                       bound=3, window=128):
        items += 1
        failures += 0 if item.ok else 1
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    wall = time.monotonic() - t0
    counters = engine.metrics.snapshot()["counters"]
    return {
        "nests": count,
        "items": items,
        "failures": failures,
        "wall_time_s": wall,
        "nests_per_sec": count / wall if wall else 0.0,
        "peak_mb": peak / 1e6,
        "dedup_hits": counters.get("engine.dedup.hits", 0),
    }

def run_bench(quick: bool = False) -> dict:
    machine = dec_alpha()
    corpus_size = 300 if quick else 600
    parity_sample = 40 if quick else 80
    # The small size sits past the point where every bounded cache has
    # saturated (the 256-signature UGS LRU fills by ~350 nests), so the
    # ratio measures per-nest accumulation, not cache fill.
    stream_small, stream_large = (400, 1600) if quick else (1000, 10000)

    decision_mismatches, base, cached, speedup = _timed_cold_pair(
        corpus_size, machine)

    parity = _table_parity(parity_sample)
    parity["decision_mismatches"] = decision_mismatches

    small = _streamed_peak(stream_small, machine)
    large = _streamed_peak(stream_large, machine)
    ratio = (large["peak_mb"] / small["peak_mb"]
             if small["peak_mb"] else float("inf"))

    return {
        "quick": quick,
        "bound": BOUND,
        "corpus": corpus_size,
        "baseline": base,
        "cached": cached,
        "speedup": speedup,
        "repeats": REPEATS,
        "parity": parity,
        "stream": {"small": small, "large": large, "peak_ratio": ratio},
        "gates": {
            "speedup_floor": SPEEDUP_FLOOR,
            "peak_ratio_ceiling": PEAK_RATIO_CEILING,
        },
    }

def acceptance(payload: dict) -> list[str]:
    """Empty when every gate holds; otherwise the violated claims."""
    problems = []
    if payload["speedup"] < SPEEDUP_FLOOR:
        problems.append(f"cold speedup {payload['speedup']:.2f}x < "
                        f"{SPEEDUP_FLOOR}x")
    if payload["parity"]["decision_mismatches"]:
        problems.append(f"{payload['parity']['decision_mismatches']} "
                        f"decision mismatches")
    if payload["parity"]["table_mismatches"]:
        problems.append(f"{payload['parity']['table_mismatches']} "
                        f"table mismatches")
    if payload["stream"]["peak_ratio"] > PEAK_RATIO_CEILING:
        problems.append(f"streaming peak ratio "
                        f"{payload['stream']['peak_ratio']:.2f} > "
                        f"{PEAK_RATIO_CEILING}")
    if payload["baseline"]["failures"] or payload["cached"]["failures"]:
        problems.append("batch failures")
    return problems

def format_bench(payload: dict) -> str:
    base, cached = payload["baseline"], payload["cached"]
    small, large = payload["stream"]["small"], payload["stream"]["large"]
    lines = [
        f"UGS table cache over a {payload['corpus']}-nest seeded corpus "
        f"(bound {payload['bound']})",
        f"{'configuration':<26s} {'wall':>8s} {'cpu':>8s} {'nests/s':>8s} "
        f"{'ugs hit rate':>13s}",
        f"{'fast path, no ugs cache':<26s} {base['wall_time_s']:>7.3f}s "
        f"{base['cpu_s']:>7.3f}s {base['nests_per_sec']:>8.1f} "
        f"{'-':>12s}",
        f"{'fast path + ugs cache':<26s} {cached['wall_time_s']:>7.3f}s "
        f"{cached['cpu_s']:>7.3f}s {cached['nests_per_sec']:>8.1f} "
        f"{100 * cached['ugs_hit_rate']:>11.0f}%",
        "",
        f"cold speedup from cross-nest sharing: {payload['speedup']:.2f}x "
        f"in CPU time, median of {payload['repeats']} interleaved pairs "
        f"(gate >= {SPEEDUP_FLOOR}x)",
        f"parity: {payload['parity']['decision_mismatches']} decision / "
        f"{payload['parity']['table_mismatches']} table mismatches over "
        f"{payload['parity']['checked']} sampled nests",
        "",
        f"optimize_stream peak heap: {small['peak_mb']:.1f} MB at "
        f"{small['nests']} nests -> {large['peak_mb']:.1f} MB at "
        f"{large['nests']} nests "
        f"(ratio {payload['stream']['peak_ratio']:.2f}, gate <= "
        f"{PEAK_RATIO_CEILING})",
        f"stream dedup hits: {small['dedup_hits']} / "
        f"{large['dedup_hits']}",
    ]
    problems = acceptance(payload)
    lines.append("")
    lines.append("acceptance: " +
                 ("PASS" if not problems else "FAIL: " +
                  "; ".join(problems)))
    return "\n".join(lines)

def write_results(payload: dict, results_dir: pathlib.Path) -> None:
    results_dir.mkdir(exist_ok=True)
    (results_dir / "ugs_cache.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")
    (results_dir / "ugs_cache.txt").write_text(
        format_bench(payload) + "\n")

# -- pytest mode --------------------------------------------------------------

def test_ugs_cache(results_dir):
    payload = run_bench(quick=True)
    write_results(payload, results_dir)
    print("\n" + format_bench(payload))
    assert acceptance(payload) == []

# -- script mode --------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller corpus and stream sizes (CI smoke)")
    parser.add_argument("--results-dir", default=str(_REPO / "results"))
    args = parser.parse_args(argv)

    payload = run_bench(quick=args.quick)
    write_results(payload, pathlib.Path(args.results_dir))
    print(format_bench(payload))
    return 0 if not acceptance(payload) else 1

if __name__ == "__main__":
    sys.exit(main())
