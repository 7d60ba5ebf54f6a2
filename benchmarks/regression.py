"""The CI benchmark-regression gate.

Compares the freshly written ``results/*.json`` of the throughput
benchmarks against committed baselines in ``benchmarks/baselines/`` with
a symmetric tolerance band (default 25%):

* **higher-is-better** metrics (nests/sec, req/s) fail when the current
  value drops more than the tolerance below the baseline;
* **lower-is-better** metrics (p95 latency) fail when the current value
  grows more than the tolerance above the baseline.

``--check`` prints a markdown delta table (and appends it to
``$GITHUB_STEP_SUMMARY`` when set, or ``--summary PATH``), exiting 1 on
any out-of-band metric or missing baseline.  ``--update`` rewrites the
baselines from the current results -- the intentional-refresh path
(``make bench-baseline``).

The comparison logic is pure and imported by
``tests/test_bench_regression.py``, which proves the gate trips on a
synthetic 2x slowdown and passes on the committed baselines.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
from typing import Mapping

_REPO = pathlib.Path(__file__).resolve().parent.parent

DEFAULT_TOLERANCE = 0.25
BASELINE_DIR = pathlib.Path(__file__).resolve().parent / "baselines"
RESULTS_DIR = _REPO / "results"

#: benchmark name -> results file and tracked metrics.  Each metric maps
#: to (path-into-the-results-payload, direction).
SPECS: dict[str, dict] = {
    "engine_throughput": {
        "results": "engine_throughput.json",
        "metrics": {
            "cold_nests_per_sec": (("cold", "nests_per_sec"), "higher"),
            # The warm pass finishes in single-digit milliseconds, so its
            # nests/sec is too noisy for a tolerance band; the hit rate
            # is the stable signal that memoization still works.
            "warm_tables_hit_rate": (("warm", "tables_hit_rate"),
                                     "higher"),
        },
    },
    "cold_analysis": {
        "results": "cold_analysis.json",
        "metrics": {
            "cold_nests_per_sec": (("fast", "nests_per_sec"), "higher"),
            # ``bound`` pins the search bound the throughput is measured
            # under (a config change shows up as a delta here instead of
            # silently shifting the nests/sec baseline).
            "bound": (("bound",), "higher"),
            # Per-stage cold latency from the engine's StageStats.  Only
            # the table build is gated: it dominates the cold path at
            # ~20ms per nest, so a 25% band is meaningful.  The other
            # stages (search, locality, dependence graph) run in the
            # low-millisecond range where the band is pure timer noise;
            # their p95s stay in the results payload for inspection.
            "build_tables_p95_s": (("stage_p95_s", "build_tables"),
                                   "lower"),
        },
    },
    "serve_throughput": {
        "results": "serve_throughput.json",
        "metrics": {
            "throughput_rps": (("throughput", "throughput_rps"), "higher"),
            "latency_p95_s": (("throughput", "latency_s", "p95"), "lower"),
            # The v2 binary-frame transport must keep beating the v1
            # JSON transport: the p50 ratio is self-normalizing (both
            # sides measured on the same box in the same run), and the
            # absolute frame throughput catches fast-path regressions
            # the ratio could hide.
            "wire_p50_ratio": (("wire", "p50_ratio"), "lower"),
            "wire_binary_rps": (("wire", "binary", "throughput_rps"),
                                "higher"),
        },
    },
    "cluster_throughput": {
        "results": "cluster_throughput.json",
        "metrics": {
            # Cluster latency and the single/cluster scaling ratio are
            # both quotient-of-noise on shared CI runners; absolute
            # routed throughput plus the merged-compute rate are the
            # stable signals that sharding still pays for itself.  The
            # merged rate is over *fresh* nests, so it cannot go vacuous
            # the way the old sticky_hit_rate did once the router L2
            # started answering repeats before they reached a shard.
            "cluster_throughput_rps": (("cluster", "throughput_rps"),
                                       "higher"),
            "merged_compute_rate": (("sticky", "merged_compute_rate"),
                                    "higher"),
        },
    },
    "reuse_profile": {
        "results": "reuse_profile.json",
        "metrics": {
            # Deterministic (seeded corpus, analytic model, exact
            # simulator), so drift here means the profile pass or the
            # conflict model changed behavior; the hard <=0.05 bar
            # lives in bench_reuse_profile.acceptance().
            "direct_mean_abs_error": (
                ("geometries", "direct_512", "mean_abs_error"), "lower"),
            "assoc4_mean_abs_error": (
                ("geometries", "assoc4_1024", "mean_abs_error"), "lower"),
            "assoc8_mean_abs_error": (
                ("geometries", "assoc8_2048", "mean_abs_error"), "lower"),
        },
    },
    "ugs_cache": {
        "results": "ugs_cache.json",
        "metrics": {
            "cached_nests_per_sec": (("cached", "nests_per_sec"),
                                     "higher"),
            # The cold cross-nest speedup: self-normalizing (both sides
            # measured in the same run) and hard-floored at 1.5x by
            # bench_ugs_cache.acceptance(); the band catches drift.
            "speedup": (("speedup",), "higher"),
            # Deterministic (seeded corpus, exact tables): any mismatch
            # means the signature over- or under-canonicalizes.
            "decision_mismatches": (("parity", "decision_mismatches"),
                                    "lower"),
            # Absolute traced-heap peak of the large streaming run; the
            # small/large *ratio* is a quotient of transient peaks (the
            # hard <=1.25x bar lives in the bench), but the absolute
            # working set regressing >25% means a cache stopped being
            # bounded.
            "stream_peak_mb": (("stream", "large", "peak_mb"), "lower"),
        },
    },
    "simd": {
        "results": "simd.json",
        "metrics": {
            # Fully deterministic (seeded corpus, fixed unroll vectors,
            # analytic cost model), so any drift means the packer or the
            # lane cost model changed behavior; the hard zero-mismatch
            # and >=30%-wins bars live in bench_simd.acceptance().
            "packable_fraction": (("estimates", "packable_fraction"),
                                  "higher"),
            "win_fraction": (("estimates", "win_fraction"), "higher"),
            "parity_mismatches": (("parity", "mismatches"), "lower"),
            "invariance_mismatches": (("invariance", "mismatches"),
                                      "lower"),
        },
    },
}

def extract(payload: Mapping, path: tuple) -> float:
    """Walk ``path`` into a results payload; raises KeyError if absent."""
    node = payload
    for key in path:
        node = node[key]
    return float(node)

def extract_metrics(name: str, payload: Mapping) -> dict[str, float]:
    """Every tracked metric of one benchmark from its results payload."""
    return {metric: extract(payload, path)
            for metric, (path, _direction) in SPECS[name]["metrics"].items()}

def compare(name: str, baseline: Mapping[str, float],
            current: Mapping[str, float],
            tolerance: float = DEFAULT_TOLERANCE) -> list[dict]:
    """Per-metric comparison rows for one benchmark.

    A row is out of band (``ok=False``) when a higher-is-better metric
    fell below ``baseline * (1 - tolerance)`` or a lower-is-better
    metric rose above ``baseline * (1 + tolerance)``.
    """
    rows = []
    for metric, (_path, direction) in SPECS[name]["metrics"].items():
        base = baseline.get(metric)
        cur = current.get(metric)
        if base is None or cur is None:
            rows.append({"benchmark": name, "metric": metric,
                         "baseline": base, "current": cur,
                         "direction": direction, "delta_pct": None,
                         "ok": False,
                         "note": "missing baseline or result"})
            continue
        delta_pct = (cur - base) / base * 100.0 if base else 0.0
        if direction == "higher":
            ok = cur >= base * (1.0 - tolerance)
        else:
            ok = cur <= base * (1.0 + tolerance)
        rows.append({"benchmark": name, "metric": metric,
                     "baseline": base, "current": cur,
                     "direction": direction, "delta_pct": delta_pct,
                     "ok": ok, "note": ""})
    return rows

def _format_number(value: float | None) -> str:
    if value is None:
        return "-"
    if abs(value) >= 100:
        return f"{value:.1f}"
    return f"{value:.4g}"

def markdown_table(rows: list[dict], tolerance: float) -> str:
    """The delta table for ``$GITHUB_STEP_SUMMARY``."""
    lines = [
        f"### Benchmark regression gate (tolerance ±{tolerance:.0%})",
        "",
        "| benchmark | metric | baseline | current | delta | status |",
        "|---|---|---:|---:|---:|:---:|",
    ]
    for row in rows:
        delta = ("-" if row["delta_pct"] is None
                 else f"{row['delta_pct']:+.1f}%")
        arrow = "higher=better" if row["direction"] == "higher" \
            else "lower=better"
        status = "✅" if row["ok"] else f"❌ {row['note']}".strip()
        lines.append(
            f"| {row['benchmark']} | {row['metric']} ({arrow}) "
            f"| {_format_number(row['baseline'])} "
            f"| {_format_number(row['current'])} "
            f"| {delta} | {status} |")
    return "\n".join(lines)

def load_json(path: pathlib.Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None

def check(results_dir: pathlib.Path, baseline_dir: pathlib.Path,
          tolerance: float) -> tuple[list[dict], bool]:
    """All comparison rows plus the overall verdict."""
    rows: list[dict] = []
    for name, spec in SPECS.items():
        baseline_doc = load_json(baseline_dir / f"{name}.json")
        results_doc = load_json(results_dir / spec["results"])
        baseline = (baseline_doc or {}).get("metrics", {})
        if results_doc is None:
            rows.extend({"benchmark": name, "metric": metric,
                         "baseline": baseline.get(metric), "current": None,
                         "direction": direction, "delta_pct": None,
                         "ok": False, "note": "no results file"}
                        for metric, (_p, direction)
                        in spec["metrics"].items())
            continue
        rows.extend(compare(name, baseline, extract_metrics(name,
                                                            results_doc),
                            tolerance))
    return rows, all(row["ok"] for row in rows)

def update(results_dir: pathlib.Path, baseline_dir: pathlib.Path) -> list[
        pathlib.Path]:
    """Rewrite the committed baselines from the current results."""
    written = []
    baseline_dir.mkdir(parents=True, exist_ok=True)
    for name, spec in SPECS.items():
        results_doc = load_json(results_dir / spec["results"])
        if results_doc is None:
            print(f"skip {name}: no {spec['results']} under {results_dir}",
                  file=sys.stderr)
            continue
        target = baseline_dir / f"{name}.json"
        target.write_text(json.dumps({
            "benchmark": name,
            "source": spec["results"],
            "tolerance_hint": DEFAULT_TOLERANCE,
            "metrics": extract_metrics(name, results_doc),
        }, indent=2, sort_keys=True) + "\n")
        written.append(target)
    return written

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="compare results against the baselines")
    mode.add_argument("--update", action="store_true",
                      help="rewrite the baselines from the results")
    parser.add_argument("--results-dir", default=str(RESULTS_DIR))
    parser.add_argument("--baseline-dir", default=str(BASELINE_DIR))
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="fractional band, e.g. 0.25 = fail on >25%% "
                             "throughput drop or p95 growth")
    parser.add_argument("--summary", default=None,
                        help="append the markdown table here (default "
                             "$GITHUB_STEP_SUMMARY when set)")
    args = parser.parse_args(argv)

    results_dir = pathlib.Path(args.results_dir)
    baseline_dir = pathlib.Path(args.baseline_dir)

    if args.update:
        written = update(results_dir, baseline_dir)
        for path in written:
            print(f"baseline updated: {path}")
        return 0 if written else 1

    rows, ok = check(results_dir, baseline_dir, args.tolerance)
    table = markdown_table(rows, args.tolerance)
    print(table)
    summary_path = args.summary or os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        try:
            with open(summary_path, "a", encoding="utf-8") as handle:
                handle.write(table + "\n")
        except OSError as err:
            print(f"cannot append summary: {err}", file=sys.stderr)
    print(f"\nregression gate: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1

if __name__ == "__main__":
    sys.exit(main())
