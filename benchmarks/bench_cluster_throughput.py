"""Cluster vs single-process serving: scaling, sticky reuse, federation.

Measures the claims of docs/CLUSTER.md over real processes and sockets:

* **scaling** -- the same warm sweep over the Table 2 kernels against a
  single-process server and against ``--workers N`` shards behind the
  router.  The acceptance bar is hardware-aware: perfect scaling is
  ``min(workers, cpu_count)`` (worker processes cannot beat physical
  cores -- on the 1-core CI container the honest bar is "the router hop
  does not halve throughput", while on a 4-core box 4 workers must
  deliver at least ~2x the single process);
* **sticky reuse** -- a duplicate-heavy workload (50% repeated nests,
  *fresh* structurally-unique corpus routines the cluster has never
  seen, so no phase can ride an earlier phase's warmth) must merge the
  duplicate compute away: between the router's L2 result cache and the
  consistent-hash routing that lands repeats on the shard that already
  computed them, at least ``MERGED_COMPUTE_BAR`` of the duplicate
  requests must finish without a fresh engine compute call;
* **federation** -- the router's merged ``GET /metrics`` must account
  for every 2xx the shards produced.

Runs under pytest (``pytest benchmarks/bench_cluster_throughput.py``)
and standalone::

    python benchmarks/bench_cluster_throughput.py --quick

Both modes write ``results/cluster_throughput.json`` and the formatted
``results/cluster_throughput.txt``; the regression gate tracks the
cluster req/s and the sticky reuse rate against
``benchmarks/baselines/cluster_throughput.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

_REPO = pathlib.Path(__file__).resolve().parent.parent
if str(_REPO / "src") not in sys.path:
    sys.path.insert(0, str(_REPO / "src"))

from repro.cluster import ClusterConfig, ClusterThread
from repro.engine import AnalysisEngine
from repro.kernels import all_kernels
from repro.serve.batcher import BatchConfig
from repro.serve.client import Client, build_workload, run_load
from repro.serve.server import ServeConfig, ServerThread

#: Required fraction of ideal hardware-aware scaling.  The router's L2
#: result cache answers warm repeats at the front door without a worker
#: hop, so even on a 1-core box the router must not cost more than 10%.
SCALING_EFFICIENCY_BAR = 0.90

#: Fraction of *duplicate* sticky-phase requests that must complete
#: without a fresh engine compute call (router L2 hit, on-shard result
#: cache, or in-flight coalescing).  The workload is fresh unseen nests,
#: so the denominator cannot be satisfied vacuously by earlier warmth.
MERGED_COMPUTE_BAR = 0.75

def _sweep(passes: int) -> list:
    names = [kernel.name for kernel in all_kernels()]
    return build_workload(passes * len(names), duplicate_fraction=0.0,
                          nests=names * passes)

def _fresh_sticky_workload(n_unique: int) -> tuple[list, int]:
    """A 50%-duplicate workload over ``n_unique`` corpus routines no
    other phase has touched, deduplicated by structural key so the
    unique count in the merged-compute denominator is exact."""
    from repro import api
    from repro.corpus.generator import CorpusConfig, generate_corpus

    specs: list[dict] = []
    seen: set = set()
    for nest in generate_corpus(CorpusConfig(routines=4 * n_unique,
                                             seed=20260808, max_depth=2,
                                             max_statements=2)):
        key = nest.structural_key()
        if key in seen:
            continue
        seen.add(key)
        specs.append(api.serialize_nest(nest))
        if len(specs) == n_unique:
            break
    workload = build_workload(2 * len(specs), duplicate_fraction=0.5,
                              nests=specs)
    return workload, len(specs)

def run_cluster_benchmark(workers: int = 2, concurrency: int = 8,
                          passes: int = 4, bound: int = 4,
                          quick: bool = False) -> dict:
    if quick:
        concurrency, passes, bound = 4, 2, 3
    kernel_count = len(all_kernels())
    cpu_count = os.cpu_count() or 1
    expected_scaling = max(1, min(workers, cpu_count))

    # The scaling ratio is a quotient of two throughput measurements on
    # a shared box, so each side runs ``trials`` warm sweeps and the
    # ratio compares best against best -- scheduler noise only ever
    # subtracts from a trial, never adds.
    trials = 3

    def _best(results: list[dict]) -> dict:
        best = max(results, key=lambda r: r["throughput_rps"])
        return dict(best, trials_rps=[r["throughput_rps"] for r in results])

    # Phase 1: the single-process reference, same executor width.
    config = ServeConfig(port=0, batch=BatchConfig(threads=4))
    with ServerThread(config, AnalysisEngine()) as handle:
        run_load("127.0.0.1", handle.port, _sweep(1),
                 concurrency=concurrency, bound=bound)  # warm the engine
        single = _best([run_load("127.0.0.1", handle.port, _sweep(passes),
                                 concurrency=concurrency, bound=bound)
                        for _ in range(trials)])

    # Phase 2 + 3: the sharded cluster.
    cluster_config = ClusterConfig(workers=workers, port=0,
                                   probe_interval_s=0.25)
    with ClusterThread(cluster_config) as handle:
        probe = Client(port=handle.port, transport="json", max_retries=0)
        run_load("127.0.0.1", handle.port, _sweep(1),
                 concurrency=concurrency, bound=bound)  # warm every shard
        cluster = _best([run_load("127.0.0.1", handle.port, _sweep(passes),
                                  concurrency=concurrency, bound=bound)
                         for _ in range(trials)])

        # Sticky phase: 50% duplicates over *fresh* unseen nests, fresh
        # counters read around it -- earlier phases cannot donate warmth.
        sticky_load, unique_count = _fresh_sticky_workload(
            10 if quick else kernel_count)
        _, before = probe.metrics()
        sticky = run_load("127.0.0.1", handle.port, sticky_load,
                          concurrency=concurrency, bound=bound)
        _, after = probe.metrics()
        probe.close()

    def merged(doc: dict, counter: str) -> int:
        return doc["metrics"]["counters"].get(counter, 0)

    def router_counter(doc: dict, counter: str) -> int:
        return doc["router"]["metrics"]["counters"].get(counter, 0)

    sticky_requests = len(sticky_load)
    duplicates = sticky_requests - unique_count
    compute_delta = (merged(after, "engine.optimize")
                     - merged(before, "engine.optimize"))
    reuse_delta = ((merged(after, "serve.coalesced")
                    + merged(after, "serve.cache.hit"))
                   - (merged(before, "serve.coalesced")
                      + merged(before, "serve.cache.hit")))
    l2_delta = (router_counter(after, "cluster.l2_hits")
                - router_counter(before, "cluster.l2_hits"))
    sticky["unique_nests"] = unique_count
    sticky["engine_optimize_calls"] = compute_delta
    sticky["compute_per_request"] = compute_delta / sticky_requests
    sticky["l2_hits"] = l2_delta
    sticky["sticky_hit_rate"] = max(0.0, reuse_delta / sticky_requests)
    # Of the duplicate requests, how many were answered without a fresh
    # engine compute?  1.0 = every repeat merged (L2, result cache, or
    # coalescing); 0.0 = every repeat recomputed somewhere.
    sticky["merged_compute_rate"] = (
        max(0.0, min(1.0, (sticky_requests - compute_delta) / duplicates))
        if duplicates else 1.0)

    shard_2xx = {slot: doc["metrics"]["counters"]
                 .get("serve.responses_2xx", 0)
                 for slot, doc in after["shards"].items()}
    return {
        "kernels": kernel_count,
        "bound": bound,
        "concurrency": concurrency,
        "workers": workers,
        "cpu_count": cpu_count,
        "expected_scaling": expected_scaling,
        "single": single,
        "cluster": cluster,
        "sticky": sticky,
        "scaling": (cluster["throughput_rps"] / single["throughput_rps"]
                    if single["throughput_rps"] else 0.0),
        "router_counters": after["router"]["metrics"]["counters"],
        "shard_2xx": shard_2xx,
        "federated_2xx": merged(after, "serve.responses_2xx"),
        "federated_metrics": after,
    }

def format_cluster(payload: dict) -> str:
    single = payload["single"]
    cluster = payload["cluster"]
    sticky = payload["sticky"]
    bar = SCALING_EFFICIENCY_BAR * payload["expected_scaling"]
    return "\n".join([
        f"Cluster serving, {payload['workers']} workers on "
        f"{payload['cpu_count']} cpu(s) "
        f"(bound {payload['bound']}, concurrency "
        f"{payload['concurrency']})",
        "",
        f"single process: {single['throughput_rps']:.1f} req/s, "
        f"p95 {1000 * single['latency_s']['p95']:.1f}ms",
        f"cluster:        {cluster['throughput_rps']:.1f} req/s, "
        f"p95 {1000 * cluster['latency_s']['p95']:.1f}ms",
        f"scaling {payload['scaling']:.2f}x "
        f"(hardware-aware ideal {payload['expected_scaling']}x, "
        f"bar {bar:.2f}x)",
        "",
        f"sticky phase ({sticky['requests']} requests over "
        f"{sticky['unique_nests']} fresh nests, 50% duplicates):",
        f"  engine compute calls {sticky['engine_optimize_calls']} "
        f"({100 * sticky['compute_per_request']:.0f}% of requests), "
        f"router L2 hits {sticky['l2_hits']}",
        f"  merged-compute rate "
        f"{100 * sticky['merged_compute_rate']:.0f}% of duplicates "
        f"(bar {100 * MERGED_COMPUTE_BAR:.0f}%)",
        f"  on-shard reuse rate {100 * sticky['sticky_hit_rate']:.0f}%",
        f"  per-shard 2xx {payload['shard_2xx']} "
        f"(federated total {payload['federated_2xx']})",
    ])

def write_results(payload: dict, results_dir: pathlib.Path) -> None:
    results_dir.mkdir(exist_ok=True)
    (results_dir / "cluster_throughput.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")
    (results_dir / "cluster_throughput.txt").write_text(
        format_cluster(payload) + "\n")

def _acceptance(payload: dict) -> list[str]:
    problems = []
    for phase in ("single", "cluster", "sticky"):
        if payload[phase]["rate_2xx"] < 1.0:
            problems.append(
                f"{phase} phase 2xx rate {payload[phase]['rate_2xx']}")
    bar = SCALING_EFFICIENCY_BAR * payload["expected_scaling"]
    if payload["scaling"] < bar:
        problems.append(
            f"scaling {payload['scaling']:.2f}x below the hardware-aware "
            f"bar {bar:.2f}x ({payload['workers']} workers, "
            f"{payload['cpu_count']} cpus)")
    if payload["sticky"]["merged_compute_rate"] < MERGED_COMPUTE_BAR:
        problems.append(
            f"sticky merged-compute rate "
            f"{payload['sticky']['merged_compute_rate']:.2f} below "
            f"{MERGED_COMPUTE_BAR} -- duplicate requests are recomputing "
            f"instead of hitting the L2 / warm shards")
    if len([count for count in payload["shard_2xx"].values()
            if count > 0]) < min(2, payload["workers"]):
        problems.append(f"traffic did not spread: {payload['shard_2xx']}")
    return problems

# -- pytest mode --------------------------------------------------------------

def test_cluster_throughput(results_dir):
    payload = run_cluster_benchmark(quick=True)
    write_results(payload, results_dir)
    print("\n" + format_cluster(payload))
    assert not _acceptance(payload), _acceptance(payload)

# -- script mode --------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller sweep (CI smoke)")
    parser.add_argument("--workers", type=int, default=2,
                        help="cluster worker processes (default 2)")
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument("--passes", type=int, default=4)
    parser.add_argument("--bound", type=int, default=4)
    parser.add_argument("--results-dir", default=str(_REPO / "results"))
    args = parser.parse_args(argv)

    payload = run_cluster_benchmark(workers=args.workers,
                                    concurrency=args.concurrency,
                                    passes=args.passes, bound=args.bound,
                                    quick=args.quick)
    write_results(payload, pathlib.Path(args.results_dir))
    print(format_cluster(payload))
    problems = _acceptance(payload)
    print(f"\nacceptance: {'PASS' if not problems else 'FAIL'}")
    for problem in problems:
        print(f"  {problem}")
    return 0 if not problems else 1

if __name__ == "__main__":
    sys.exit(main())
