"""Serving throughput: coalescing hit rate, latency percentiles, req/s.

The serving layer's claims, measured over a real loopback socket against
the 19 Table 2 kernels:

* **coalescing** -- a workload where 50% of requests duplicate an earlier
  nest completes with engine compute calls (the ``engine.optimize``
  counter) at most 60% of the request count: duplicates ride the
  batcher's in-flight coalescing, its result cache, or the server's v2
  frame cache instead of recomputing;
* **sustained throughput** -- a warm multiple-pass sweep over all 19
  kernels, reported as requests/sec with exact client-side latency
  percentiles (and the server's own histogram-derived p50/p95/p99 from
  ``GET /metrics``);
* **wire shoot-out** -- the same serialized-source sweep (nests shipped
  as full specs, the external-client shape -- no server-side kernel
  lookup) over the v1 JSON transport and the v2 binary-frame transport
  at equal concurrency.  The frame path (precomputed structural key in
  the header + the server's encoded-response cache, docs/WIRE.md) must
  at least halve the warm JSON p50.

Runs under pytest (``pytest benchmarks/bench_serve_throughput.py``) and
as a standalone script::

    python benchmarks/bench_serve_throughput.py --quick

Both modes write ``results/serve_throughput.json`` and the formatted
``results/serve_throughput.txt``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

_REPO = pathlib.Path(__file__).resolve().parent.parent
if str(_REPO / "src") not in sys.path:
    sys.path.insert(0, str(_REPO / "src"))

from repro import obs
from repro.engine import AnalysisEngine
from repro.kernels import all_kernels
from repro.serve.batcher import BatchConfig
from repro.serve.client import Client, build_workload, run_load
from repro.serve.server import ServeConfig, ServerThread

#: The acceptance bar: with 50% duplicates, compute calls per request.
COMPUTE_RATIO_BAR = 0.60

#: Warm binary-frame p50 must be at most this fraction of the warm JSON
#: p50 at equal concurrency (the docs/WIRE.md claim).
WIRE_P50_RATIO_BAR = 0.50

#: Measured sweeps of the 19 kernels per transport in the wire phase, in
#: every mode: at 2 sweeps (38 requests) the ratio of two sub-millisecond
#: p50s read 0.29-0.54 across runs on a 2-core VM, so the verdict
#: flipped; 8 sweeps (152 requests) settle it.
WIRE_PASSES = 8

def _wire_workload(passes: int) -> list:
    """Every Table 2 kernel as a *serialized* nest spec, ``passes`` times.

    Serialized specs are what an external client actually ships (the
    server cannot shortcut them through the kernel-name lookup), so the
    JSON-vs-binary delta is pure wire, parse, and cache-path cost.
    """
    from repro.api import serialize_nest

    specs = [serialize_nest(kernel.nest) for kernel in all_kernels()]
    return build_workload(passes * len(specs), duplicate_fraction=0.0,
                          nests=specs * passes)

def _engine_optimize_calls(client: Client) -> int:
    _, doc = client.metrics()
    return doc["metrics"]["counters"].get("engine.optimize", 0)

def run_serve_benchmark(concurrency: int = 8, passes: int = 5,
                        bound: int = 4, quick: bool = False) -> dict:
    """Boot a fresh server on a loopback socket and measure both phases."""
    if quick:
        concurrency, passes, bound = 4, 2, 3
    kernel_count = len(all_kernels())
    config = ServeConfig(port=0, batch=BatchConfig(threads=4))
    with ServerThread(config, AnalysisEngine()) as handle:
        probe = Client(port=handle.port, transport="json", max_retries=0)

        # Phase 1: every kernel exactly twice -> 50% duplicate nests.
        workload = build_workload(2 * kernel_count, duplicate_fraction=0.5)
        assert len({nest for _, nest in workload}) == kernel_count
        coalescing = run_load("127.0.0.1", handle.port, workload,
                              concurrency=concurrency, bound=bound)
        compute_calls = _engine_optimize_calls(probe)
        coalescing["engine_optimize_calls"] = compute_calls
        coalescing["compute_per_request"] = \
            compute_calls / len(workload)
        counters = probe.metrics()[1]["metrics"]["counters"]
        # Three places answer a duplicate without compute: a pending twin
        # (coalescing), the batcher's result LRU, and -- for v2 frames,
        # before the batcher is reached -- the server's frame cache.
        coalescing["coalesced"] = counters.get("serve.coalesced", 0)
        coalescing["result_cache_hits"] = counters.get("serve.cache.hit", 0)
        coalescing["frame_cache_hits"] = counters.get(
            "serve.frame_fast_hits", 0)
        coalescing["coalescing_hit_rate"] = \
            (coalescing["coalesced"] + coalescing["result_cache_hits"]
             + coalescing["frame_cache_hits"]) / len(workload)

        # Phase 2: sustained warm throughput, `passes` sweeps of all 19.
        sweep = build_workload(passes * kernel_count, duplicate_fraction=0.0,
                               nests=[k.name for k in all_kernels()] * passes)
        throughput = run_load("127.0.0.1", handle.port, sweep,
                              concurrency=concurrency, bound=bound)

        # Phase 3: the wire shoot-out.  One unmeasured pass per
        # transport warms each lane (result cache, frame cache, client
        # encode cache), then the measured sweeps run fully warm so the
        # comparison is wire cost, not compute.  Both transports run at
        # the same concurrency -- pinned to 1, because the warm wire
        # cost is sub-millisecond and CPython's thread-switch latency
        # (~5ms default interval) swamps it the moment client threads
        # outnumber cores.
        wire_concurrency = 1
        run_load("127.0.0.1", handle.port, _wire_workload(1),
                 concurrency=wire_concurrency, bound=bound, transport="json")
        run_load("127.0.0.1", handle.port, _wire_workload(1),
                 concurrency=wire_concurrency, bound=bound,
                 transport="binary")
        wire_json = run_load("127.0.0.1", handle.port,
                             _wire_workload(WIRE_PASSES),
                             concurrency=wire_concurrency, bound=bound,
                             transport="json")
        wire_binary = run_load("127.0.0.1", handle.port,
                               _wire_workload(WIRE_PASSES),
                               concurrency=wire_concurrency, bound=bound,
                               transport="binary")
        json_p50 = wire_json["latency_s"]["p50"]
        binary_p50 = wire_binary["latency_s"]["p50"]
        wire = {
            "json": wire_json,
            "binary": wire_binary,
            "concurrency": wire_concurrency,
            "p50_ratio": (binary_p50 / json_p50 if json_p50 else 0.0),
            "rps_speedup": (wire_binary["throughput_rps"]
                            / wire_json["throughput_rps"]
                            if wire_json["throughput_rps"] else 0.0),
        }

        _, metrics_doc = probe.metrics()
        probe.close()

    server_stages = metrics_doc["metrics"]["stages"]
    optimize_stage = server_stages.get("stage.optimize", {})
    return {
        "kernels": kernel_count,
        "bound": bound,
        "concurrency": concurrency,
        "coalescing": coalescing,
        "throughput": throughput,
        "wire": wire,
        "server_stage_optimize": {
            key: optimize_stage.get(key, 0.0)
            for key in ("count", "mean_s", "p50_s", "p95_s", "p99_s")},
        "server_metrics": metrics_doc,
    }

def format_serve(payload: dict) -> str:
    coal = payload["coalescing"]
    thr = payload["throughput"]
    lines = [
        f"Serving the {payload['kernels']} Table 2 kernels over HTTP "
        f"(bound {payload['bound']}, concurrency {payload['concurrency']})",
        "",
        "coalescing phase (50% duplicate nests):",
        f"  requests {coal['requests']}, engine compute calls "
        f"{coal['engine_optimize_calls']} "
        f"({100 * coal['compute_per_request']:.0f}% of requests; "
        f"bar {100 * COMPUTE_RATIO_BAR:.0f}%)",
        f"  coalesced in flight {coal['coalesced']}, result-cache hits "
        f"{coal['result_cache_hits']}, frame-cache hits "
        f"{coal['frame_cache_hits']} "
        f"(hit rate {100 * coal['coalescing_hit_rate']:.0f}% of requests)",
        f"  2xx rate {100 * coal['rate_2xx']:.1f}%",
        "",
        f"sustained phase ({thr['requests']} warm requests):",
        f"  throughput {thr['throughput_rps']:.1f} req/s, "
        f"2xx rate {100 * thr['rate_2xx']:.1f}%",
        f"  client latency p50 {1000 * thr['latency_s']['p50']:.2f}ms  "
        f"p95 {1000 * thr['latency_s']['p95']:.2f}ms  "
        f"p99 {1000 * thr['latency_s']['p99']:.2f}ms",
        f"  server stage.optimize p50 "
        f"{1000 * payload['server_stage_optimize']['p50_s']:.2f}ms  "
        f"p99 {1000 * payload['server_stage_optimize']['p99_s']:.2f}ms",
        "",
        f"wire shoot-out ({payload['wire']['json']['requests']} serialized"
        f"-source requests per transport):",
        f"  v1 json:   {payload['wire']['json']['throughput_rps']:.1f} "
        f"req/s, p50 "
        f"{1000 * payload['wire']['json']['latency_s']['p50']:.2f}ms",
        f"  v2 binary: {payload['wire']['binary']['throughput_rps']:.1f} "
        f"req/s, p50 "
        f"{1000 * payload['wire']['binary']['latency_s']['p50']:.2f}ms",
        f"  binary/json p50 ratio {payload['wire']['p50_ratio']:.2f} "
        f"(bar <= {WIRE_P50_RATIO_BAR:.2f}), "
        f"rps speedup {payload['wire']['rps_speedup']:.2f}x",
    ]
    return "\n".join(lines)

def write_results(payload: dict, results_dir: pathlib.Path) -> None:
    results_dir.mkdir(exist_ok=True)
    (results_dir / "serve_throughput.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")
    (results_dir / "serve_throughput.txt").write_text(
        format_serve(payload) + "\n")

def _acceptance(payload: dict) -> list[str]:
    problems = []
    coal = payload["coalescing"]
    if coal["compute_per_request"] > COMPUTE_RATIO_BAR:
        problems.append(
            f"compute/request {coal['compute_per_request']:.2f} exceeds "
            f"{COMPUTE_RATIO_BAR}")
    if coal["rate_2xx"] < 1.0:
        problems.append(f"coalescing phase 2xx rate {coal['rate_2xx']}")
    if payload["throughput"]["rate_2xx"] < 1.0:
        problems.append(
            f"sustained phase 2xx rate {payload['throughput']['rate_2xx']}")
    if payload["throughput"]["throughput_rps"] <= 0:
        problems.append("no sustained throughput measured")
    wire = payload["wire"]
    for transport in ("json", "binary"):
        if wire[transport]["rate_2xx"] < 1.0:
            problems.append(
                f"wire {transport} 2xx rate {wire[transport]['rate_2xx']}")
    if wire["p50_ratio"] > WIRE_P50_RATIO_BAR:
        problems.append(
            f"binary/json p50 ratio {wire['p50_ratio']:.2f} exceeds "
            f"{WIRE_P50_RATIO_BAR} -- the frame transport is not paying "
            f"for itself")
    return problems

# -- pytest mode --------------------------------------------------------------

def test_serve_throughput(results_dir):
    payload = run_serve_benchmark(quick=True)
    write_results(payload, results_dir)
    print("\n" + format_serve(payload))
    assert not _acceptance(payload), _acceptance(payload)

# -- script mode --------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller sweep (CI smoke)")
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument("--passes", type=int, default=5)
    parser.add_argument("--bound", type=int, default=4)
    parser.add_argument("--results-dir", default=str(_REPO / "results"))
    parser.add_argument("--emit-trace", action="store_true",
                        help="record repro.obs spans and write the Chrome "
                             "trace next to the results JSON")
    parser.add_argument("--profile", action="store_true",
                        help="cProfile the served jobs and write the "
                             "top-N summary next to the results JSON")
    args = parser.parse_args(argv)

    results_dir = pathlib.Path(args.results_dir)
    if args.emit_trace:
        obs.configure(enabled=True)
    if args.profile:
        obs.set_profiler(obs.Profiler(enabled=True))

    with obs.span("bench.serve_throughput", quick=args.quick):
        payload = run_serve_benchmark(concurrency=args.concurrency,
                                      passes=args.passes, bound=args.bound,
                                      quick=args.quick)
    write_results(payload, results_dir)

    if args.emit_trace:
        trace_path = results_dir / "serve_throughput.trace.json"
        obs.get_tracer().write_chrome(trace_path)
        print(f"[trace] {trace_path} ({len(obs.get_tracer())} spans)")
    if args.profile:
        profile_path = obs.get_profiler().write(
            results_dir / "serve_throughput.profile.json")
        print(f"[profile] {profile_path}")
    print(format_serve(payload))
    problems = _acceptance(payload)
    print(f"\nacceptance: {'PASS' if not problems else 'FAIL'}")
    for problem in problems:
        print(f"  {problem}")
    return 0 if not problems else 1

if __name__ == "__main__":
    sys.exit(main())
