"""The repository's end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload corpus_cold --seed 1997 \
        --seconds 30 --trace 0

Workloads: ``corpus_cold`` and ``serve_mixed``.  With
``--trace 0`` the run measures every end-to-end metric; with ``--trace 1``
it measures the per-layer metrics instead (spans around the public calls
into each layer, and ``/metrics`` deltas for the server) and writes a
Chrome trace under ``.bench_out/``.  Every answer is checked against
engine-independent oracles (``oracle.py``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are the human-readable report.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction

from common import (BOUND, DEFAULT_SEED, HELD_OUT_SEED, LOADS, OUT_DIR,
                    PASSES, ROOT, SETUP_STARTS, child_env, median,
                    nests_per_pass, pass_slices, percentile, require_program,
                    requests_per_client, tail, tail_rank)

WORKLOADS = ("corpus_cold", "serve_mixed")

#: The end-to-end metrics every workload reports: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("cold_latency_p50_ms", "ms"),
    ("cold_latency_tail_ms", "ms"),
    ("warm_latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: Engine layers: (metric prefix, span name in a traced pass, stage timer
#: in the server's /metrics).
ENGINE_LAYERS = (
    ("unroll.tables", "unroll.tables", "stage.build_tables"),
    ("reuse.locality", "reuse.locality", "stage.locality"),
    ("unroll.search", "unroll.search", "stage.search"),
    ("dependence", "dependence", "stage.dependence_graph"),
    ("unroll.safety", "unroll.safety", "stage.safety"),
    ("reuse.ugs", "reuse.ugs", "stage.ugs_partition"),
)
SHARED_LAYERS = ("unroll.tables", "reuse.locality", "unroll.search")
#: The opt-in cost axes, measured by a vector pass inside corpus_cold's
#: traced run: (metric prefix, span name).
VECTOR_LAYERS = (("vector.search", "unroll.search"),
                 ("reuse.profile", "reuse.profile"))

#: The per-layer metrics every traced run reports: (name, unit).  An idle
#: layer (the server on corpus_cold, the vector pass on serve_mixed)
#: reads 0.
PER_LAYER = tuple(
    [(f"{prefix}.self_s", "s") for prefix, _, _ in ENGINE_LAYERS]
    + [(f"{prefix}.share", "share") for prefix in SHARED_LAYERS]
    + [(f"{prefix}.{kind}", unit) for prefix, _ in VECTOR_LAYERS
       for kind, unit in (("self_s", "s"), ("share", "share"))]
    + [("unroll.tables.calls", "count"), ("reuse.ugs.sets", "count"),
       ("engine.ugscache.hits", "count"), ("engine.ugscache.misses", "count"),
       ("engine.ugscache.hit_ratio", "ratio"),
       ("engine.dedup.hits", "count"), ("engine.tables.hit_ratio", "ratio"),
       ("engine.artifacts.hit_ratio", "ratio"),
       ("serve.result_cache.hit_ratio", "ratio"),
       ("serve.frame_cache.hit_ratio", "ratio"),
       ("serve.coalesced", "count"), ("serve.batch.mean_jobs", "jobs"),
       ("serve.compute_per_request", "ratio"),
       ("serve.execute_p50_ms", "ms"), ("serve.execute_tail_ms", "ms"),
       ("serve.json.warm_p50_ms", "ms"), ("serve.binary.warm_p50_ms", "ms"),
       ("serve.rejected", "count"), ("serve.retries", "count"),
       ("warm_latency_tail_ms", "ms"),
       ("trace.overhead", "ratio"), ("trace.unattributed.share", "share")])


class Report:
    """Metric values plus the human-readable lines explaining them."""

    def __init__(self):
        self.values: dict[str, float] = {}
        self.lines: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def metric(self, name: str, value: float, note: str = "") -> None:
        self.values[name] = float(value)
        self.lines.append(f"  {name:<30s} {value:>12.4f}  {note}")

    def fail(self, count: int, why: str) -> None:
        if count:
            self.failed += count
            self.problems.append(f"{count} x {why}")


def host_probe() -> float:
    """Seconds for a fixed, program-independent interpreter loop.  It is
    recorded beside every run so a host speed change can be told apart
    from a regression; no metric is divided by it."""
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(300_000):
        table[i & 4095] = acc
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - t0


def warm_bytecode() -> None:
    """Compile the program once, so no timed set-up pays for bytecode
    compilation (a user's installed package ships it compiled)."""
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(ROOT / "src" / "repro")], check=True,
                   stdout=subprocess.DEVNULL, env=child_env())


# -- the in-process workloads -------------------------------------------------

def spawn_pass(workload: str, nests: dict, mode: str,
               trace_out: str | None = None) -> tuple[float, dict]:
    """One fresh interpreter running a pass over ``nests``; returns
    (set-up seconds, its JSON result)."""
    from repro.api import serialize_nest

    argv = [sys.executable, str(ROOT / "perfbench" / "corpus_pass.py"),
            workload, mode]
    if trace_out is not None:
        argv.append(trace_out)
    specs = json.dumps([serialize_nest(nest) for nest in nests.values()])
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        # The inputs go in only after set-up has been timed.
        if first.strip() == "ready":
            proc.stdin.write(specs)
        proc.stdin.close()
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if first.strip() != "ready" or code != 0:
        raise RuntimeError(f"{workload} pass exited {code}")
    return setup, json.loads(rest)


def check_corpus(workload: str, seed: int, passes: list[tuple[dict, dict]],
                 report: Report) -> None:
    """Every answer of every ``(nests, pass result)`` against the
    oracles."""
    import oracle
    from repro.api import coerce_machine

    machine = coerce_machine("alpha" if workload == "corpus_cold"
                             else "future")
    nests = {i: nest for pass_in, _ in passes for i, nest in pass_in.items()}
    answers = [(i, answer) for pass_in, run in passes
               for key in ("answers", "warm")
               for i, answer in zip(pass_in, run[key])]
    report.attempted += len(answers)
    report.fail(sum(1 for _, a in answers if "error" in a), "errors")
    answers = [(i, a) for i, a in answers if "error" not in a]
    first = {i: a for i, a in reversed(answers)}
    report.fail(sum(1 for i, a in answers if a != first[i]),
                "answers that differ from the warm repeat")

    chosen = sorted(first)
    if workload == "corpus_cold":
        decisions = oracle.DecisionOracle(seed, machine)
        live = decisions.sample({i: nests[i] for i in chosen})
        checked = [i for i in chosen if decisions.covers(i)] + live
        wrong = {i for i in checked
                 if not oracle.matches(decisions.decision(i, nests[i]),
                                       first[i]["dims"], first[i]["bounds"],
                                       first[i]["unroll"],
                                       Fraction(first[i]["objective"]))}
        report.lines.append(
            f"  brute force: {len(checked) - len(live)} committed and "
            f"{len(live)} live reference decisions checked, "
            f"{len(wrong)} wrong")
        executed = oracle.exec_sample(seed, chosen)
        wrong |= {i for i in executed if not oracle.jammed_matches_original(
            nests[i], first[i]["unroll"], seed)}
    else:
        wrong = set()
        for i in chosen:
            space = oracle.reference_space(nests[i], machine)
            a = first[i]
            inside = all(a["unroll"][d] <= b
                         for d, b in zip(space.dims, space.bounds))
            outside_zero = all(a["unroll"][d] == 0
                               for d in range(nests[i].depth)
                               if d not in space.dims)
            if not (a["dims"] == list(space.dims)
                    and a["bounds"] == list(space.bounds)
                    and inside and outside_zero):
                wrong.add(i)
        report.lines.append(f"  search box: {len(chosen)} answers inside "
                            f"the public-analysis box, "
                            f"{len(wrong)} outside")
        executed = oracle.exec_sample(seed, chosen)
        wrong |= {i for i in executed if not oracle.packed_matches_original(
            nests[i], first[i]["unroll"], machine, seed)}
    report.lines.append(f"  interpreter: {len(executed)} transformed nests "
                        f"executed against the original")
    report.fail(sum(1 for i, _ in answers if i in wrong), "wrong answers")


def corpus_workload(seed: int, seconds: int, report: Report) -> None:
    workload = "corpus_cold"
    count = nests_per_pass(workload, seconds)
    setups, passes = [], []
    for nests in pass_slices(seed, count):
        setup, out = spawn_pass(workload, nests, "engine")
        setups.append(setup)
        passes.append((nests, out))
        for _ in range(SETUP_STARTS):  # a pass of no nests: set-up only
            setups.append(spawn_pass(workload, {}, "engine")[0])
    report.lines.append(f"{workload}: {PASSES} passes x {count} distinct "
                        f"nests cold + as many warm repeats, seed {seed}; "
                        f"each metric is measured per pass, the median of "
                        f"{PASSES} passes is reported")
    per_pass = []
    for _, run in passes:
        values = _latency_values([t * 1e3 for t in run["cold_s"]],
                                 [t * 1e3 for t in run["warm_s"]])
        values["throughput_per_s"] = (
            count / sum(run["cold_s"]),
            f"nests/s, {count} nests / their cold time")
        per_pass.append(values)
    _report_medians(report, per_pass, "passes")
    report.metric("setup_s", median(setups),
                  f"s, median of {len(setups)} interpreter starts")
    report.metric("peak_rss_mb",
                  median([run["peak_rss_mb"] for _, run in passes]),
                  f"MB, benchmark process, median of {PASSES} passes")
    check_corpus(workload, seed, passes, report)


def traced_pass(workload: str, seed: int, count: int,
                 report: Report) -> tuple[dict, dict, dict]:
    """An engine pass and a decomposed, traced pass over the same nests;
    returns (engine pass, traced pass, self time per span name)."""
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"{workload}-seed{seed}.trace.json"
    nests = pass_slices(seed, count)[0]
    _, plain = spawn_pass(workload, nests, "engine")
    _, traced = spawn_pass(workload, nests, "traced", str(trace_path))
    report.lines.append(f"{workload} traced: 1 pass x {count} nests "
                        f"+ {len(traced['warm'])} warm repeats, seed {seed}; "
                        f"trace in {trace_path.relative_to(ROOT)}")
    # The decomposed pipeline must make the engine's decisions and
    # reproduce its memo counts exactly.
    differ = [name for name, value in plain["counters"].items()
              if traced["counters"][name] != value]
    report.fail(len(differ), f"engine counters the decomposed pipeline "
                             f"does not reproduce ({', '.join(differ)})")
    report.fail(sum(1 for a, b in zip(plain["answers"], traced["answers"])
                    if a != b), "decomposed decisions differ from the engine")
    check_corpus(workload, seed, [(nests, traced)], report)
    return plain, traced, _self_times(traced["spans"])


def corpus_traced(seed: int, seconds: int, report: Report) -> None:
    plain, traced, self_s = traced_pass(
        "corpus_cold", seed, nests_per_pass("corpus_cold", seconds), report)
    _, vector, vector_self = traced_pass(
        "corpus_vector", seed, nests_per_pass("corpus_vector", seconds),
        report)
    wall = traced["total_s"]
    report.lines.append(f"  per layer, corpus_cold pass (self time, share of "
                        f"the traced wall {wall:.3f} s):")
    attributed = 0.0
    for prefix, span_name, _ in ENGINE_LAYERS:
        attributed += self_s.get(span_name, 0.0)
        _layer_time(report, prefix, self_s.get(span_name, 0.0), wall)
    counters = traced["counters"]
    _layer_counts(report, counters["cache.tables.miss"],
                  counters["reuse.ugs.sets"], counters)
    vector_wall = vector["total_s"]
    report.lines.append(f"  per layer, corpus_vector pass (share of its "
                        f"traced wall {vector_wall:.3f} s):")
    for prefix, span_name in VECTOR_LAYERS:
        _layer_time(report, prefix, vector_self.get(span_name, 0.0),
                    vector_wall)
    _serve_idle(report)
    _warm_tail(report, [[t * 1e3 for t in plain["warm_s"]]],
               "warm repeats of the untraced engine pass")
    _trace_rows(report, wall, attributed, plain["total_s"],
                "untraced engine pass")


def _self_times(spans: list) -> dict[str, float]:
    """Self time per span name: duration minus the direct children's."""
    children: dict[str, float] = defaultdict(float)
    for _, _, parent, seconds in spans:
        if parent is not None:
            children[parent] += seconds
    totals: dict[str, float] = defaultdict(float)
    for name, span_id, _, seconds in spans:
        totals[name] += seconds - children.get(span_id, 0.0)
    return totals


# -- the serving workload -------------------------------------------------------

def serve_workload(seed: int, seconds: int, report: Report) -> None:
    import serve_load

    plans, nests = serve_load.nests_for(
        seed, serve_load.plan(seed, requests_per_client(seconds), LOADS))
    loads = [serve_load.load_phase(load, nests) for load in plans]
    report.lines.append(f"serve_mixed: {LOADS} fresh servers x 2 "
                        f"closed-loop clients (v1 JSON, v2 binary) taking "
                        f"turns from one thread x {len(plans[0][0])} "
                        f"requests, {len(nests)} distinct nests, seed "
                        f"{seed}; throughput and the cold tail are measured "
                        f"per load (median of {LOADS} loads reported), the "
                        f"p50s over the whole run")
    # Every load is taken whole: the server's waits after a new nest
    # belong to the program.  The tail is taken per load and the median
    # over loads reported: over the pooled run it would be p99 by the
    # ladder rule, and flip between p99 and p90 from seed to seed.
    per_load = []
    for load in loads:
        cold = [r.seconds * 1e3 for r in load["records"]
                if r.status == 200 and r.new]
        rank, value = tail(cold)
        per_load.append({
            "cold_latency_tail_ms": (value, f"ms, p{rank:g} of "
                                            f"{len(cold)} new-nest replies"),
            "throughput_per_s": (
                len(load["records"]) / load["wall_s"],
                f"requests/s, {len(load['records'])} requests / load wall")})
    _report_medians(report, per_load, "loads")
    # The medians pool the whole run, the steadier statistic.  The two
    # transports' repeat latencies barely overlap, so a pooled median
    # would sit in the gap between them and jump with the share of each:
    # each client's median is taken and the two are averaged.
    good = [r for load in loads for r in load["records"] if r.status == 200]
    cold = [r.seconds * 1e3 for r in good if r.new]
    report.metric("cold_latency_p50_ms", percentile(cold, 50.0),
                  f"ms, p50 of the run's {len(cold)} new-nest replies")
    warm = _warm_by_client(good)
    report.metric("warm_latency_p50_ms",
                  sum(percentile(w, 50.0) for w in warm) / len(warm),
                  f"ms, mean over {len(warm)} clients of the p50 of each "
                  f"one's repeats in the run "
                  f"({'+'.join(str(len(w)) for w in warm)})")
    report.metric("setup_s", median([load["setup_s"] for load in loads]),
                  f"s, spawn to /healthz 200, median of {LOADS}")
    report.metric("peak_rss_mb", median([load["peak_rss_mb"]
                                         for load in loads]),
                  f"MB, server VmHWM, median of {LOADS}")
    check_serve(seed, nests, [r for load in loads for r in load["records"]],
                report)


def check_serve(seed: int, nests: dict, replies: list, report: Report) -> None:
    import oracle
    from repro.api import coerce_machine

    report.attempted += len(replies)
    report.fail(sum(1 for r in replies if r.status != 200), "non-2xx replies")
    decisions = oracle.DecisionOracle(seed, coerce_machine("alpha"))
    served = sorted({r.index for r in replies if r.status == 200})
    live = decisions.sample({i: nests[i] for i in served})
    checked = set(i for i in served if decisions.covers(i)) | set(live)
    wrong = 0
    for r in replies:
        if r.status != 200 or r.index not in checked:
            continue
        dims = r.payload["candidates"]
        bounds = [min(BOUND, r.payload["safety"][d]) for d in dims]
        if not oracle.matches(decisions.decision(r.index, nests[r.index]),
                              dims, bounds, r.payload["unroll"],
                              r.payload["objective"]):
            wrong += 1
    report.lines.append(
        f"  brute force: {len(checked) - len(live)} committed and "
        f"{len(live)} live reference decisions checked over "
        f"{sum(1 for r in replies if r.index in checked)} replies, "
        f"{wrong} wrong")
    report.fail(wrong, "wrong answers")


def serve_traced(seed: int, seconds: int, report: Report) -> None:
    import serve_load
    from repro.obs.trace import Tracer

    loads, nests = serve_load.nests_for(
        seed, serve_load.plan(seed, requests_per_client(seconds), 1))
    plans = loads[0]
    plain = serve_load.load_phase(plans, nests)
    tracer = Tracer(enabled=True, buffer_size=10_000_000)
    traced = serve_load.load_phase(plans, nests, tracer)
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"serve_mixed-seed{seed}.trace.json"
    tracer.write_chrome(trace_path)
    records = traced["records"]
    report.lines.append(f"serve_mixed traced: 2 clients x {len(plans[0])} "
                        f"requests, seed {seed}; client spans in "
                        f"{trace_path.relative_to(ROOT)}")
    check_serve(seed, nests, records, report)

    before, after = traced["metrics_before"], traced["metrics_after"]

    def delta(name: str) -> int:
        return (after["counters"].get(name, 0)
                - before["counters"].get(name, 0))

    def stage(name: str) -> dict:
        empty = {"count": 0, "total_s": 0.0, "histogram": []}
        a = after["stages"].get(name, empty)
        b = before["stages"].get(name, empty)
        hist = [x - y for x, y in
                zip(a["histogram"], b["histogram"] or [0] * len(
                    a["histogram"]))]
        return {"count": a["count"] - b["count"],
                "total_s": a["total_s"] - b["total_s"], "histogram": hist}

    wall = traced["wall_s"]
    report.lines.append(f"  per layer (server stage timers, share of the "
                        f"load wall {wall:.3f} s):")
    attributed = 0.0
    for prefix, _, timer in ENGINE_LAYERS:
        seconds_in = stage(timer)["total_s"]
        attributed += seconds_in
        _layer_time(report, prefix, seconds_in, wall)
    counters = {"cache.ugs.hit": delta("cache.ugs.hit"),
                "cache.ugs.miss": delta("cache.ugs.miss"),
                "engine.dedup.hits": delta("engine.dedup.hits")}
    for family in ("tables", "artifacts"):
        for outcome in ("hit", "miss"):
            counters[f"cache.{family}.{outcome}"] = delta(
                f"cache.{family}.{outcome}")
    from repro.reuse.ugs import partition_ugs

    distinct = {nests[r.index].structural_key(): nests[r.index]
                for r in records if r.new}
    sets = sum(len(partition_ugs(nest)) for nest in distinct.values())
    _layer_counts(report, stage("stage.build_tables")["count"], sets,
                  counters)

    requests = delta("serve.requests")
    frame_hits = delta("serve.frame_fast_hits")
    frame_probes = frame_hits + delta("serve.frame_fast_misses")
    result_hits = delta("serve.cache.hit")
    batches = delta("serve.batches")
    computed = delta("engine.optimize")
    total = len(records)
    execute = stage("stage.optimize")
    report.metric("serve.result_cache.hit_ratio",
                  _ratio(result_hits, requests),
                  f"{result_hits} hits / {requests} requests reaching the "
                  f"batcher")
    report.metric("serve.frame_cache.hit_ratio",
                  _ratio(frame_hits, frame_probes),
                  f"{frame_hits} hits / {frame_probes} binary requests")
    report.metric("serve.coalesced", delta("serve.coalesced"),
                  "requests attached to an in-flight twin")
    report.metric("serve.batch.mean_jobs",
                  _ratio(delta("serve.batched_jobs"), batches),
                  f"jobs per flush over {batches} flushes")
    report.metric("serve.compute_per_request", _ratio(computed, total),
                  f"{computed} engine.optimize calls / {total} requests")
    for label, q in (("p50", 50.0), ("tail", tail_rank(execute["count"]))):
        report.metric(f"serve.execute_{label}_ms",
                      _hist_percentile(execute, q) * 1e3,
                      f"engine.optimize p{q:g}, estimated from the server "
                      f"histogram ({execute['count']} calls)")
    for c, transport in enumerate(serve_load.CLIENTS):
        warm = [r.seconds * 1e3 for r in records
                if r.client == c and not r.new and r.status == 200]
        report.metric(f"serve.{transport}.warm_p50_ms",
                      percentile(warm, 50.0),
                      f"client-timed, {len(warm)} repeats")
    report.metric("serve.rejected", delta("serve.rejected"), "429 replies")
    report.metric("serve.retries", sum(r.retries for r in records),
                  "client 429 retries")
    _vector_idle(report)
    _warm_tail(report, _warm_by_client(
        [r for r in plain["records"] if r.status == 200]),
        "mean over the clients of the untraced load phase")
    _trace_rows(report, wall, attributed, plain["wall_s"],
                "untraced load phase")


def _hist_percentile(stage: dict, q: float) -> float:
    """A percentile of a delta of the server's decade histogram,
    interpolated linearly inside the bucket holding it."""
    from repro.engine.metrics import BUCKET_BOUNDS

    count = stage["count"]
    if count <= 0:
        return 0.0
    target = q / 100.0 * count
    cumulative, lower = 0, 0.0
    for slot, upper in enumerate(BUCKET_BOUNDS):
        in_bucket = stage["histogram"][slot]
        if in_bucket and cumulative + in_bucket >= target:
            return lower + (target - cumulative) / in_bucket * (upper - lower)
        cumulative += in_bucket
        lower = upper
    return BUCKET_BOUNDS[-1]


# -- shared report rows ---------------------------------------------------------

def _latency_values(cold: list[float],
                    warm: list[float]) -> dict[str, tuple[float, str]]:
    """p50 and tail of cold latencies, p50 of warm ones:
    name -> (value, note)."""
    rank, value = tail(cold)
    return {
        "cold_latency_p50_ms": (percentile(cold, 50.0),
                                f"ms, p50 of {len(cold)} samples"),
        "cold_latency_tail_ms": (value,
                                 f"ms, p{rank:g} of {len(cold)} samples"),
        "warm_latency_p50_ms": (percentile(warm, 50.0),
                                f"ms, p50 of {len(warm)} samples")}


def _warm_by_client(replies: list) -> list[list[float]]:
    """Each serve client's repeat latencies in ms."""
    import serve_load

    return [[r.seconds * 1e3 for r in replies if r.client == c and not r.new]
            for c in range(len(serve_load.CLIENTS))]


def _warm_tail(report: Report, groups: list[list[float]], what: str) -> None:
    """The mean over ``groups`` of each one's tail latency.  It swings up
    to 4x with the host's scheduling while the medians move by a quarter,
    so it is a per-layer figure, outside the bounded end-to-end ones."""
    ranks = [tail_rank(len(group)) for group in groups]
    report.metric("warm_latency_tail_ms",
                  sum(percentile(group, rank)
                      for group, rank in zip(groups, ranks)) / len(groups),
                  f"ms, {what}: p{'/'.join(f'{q:g}' for q in ranks)} of "
                  f"{'+'.join(str(len(group)) for group in groups)} "
                  f"samples")


def _report_medians(report: Report, per_rep: list[dict],
                    what: str) -> None:
    """Report each metric's median over the repetitions of a run."""
    for name, (_, note) in per_rep[0].items():
        samples = [values[name][0] for values in per_rep]
        report.metric(name, median(samples),
                      f"{note}; median of {len(samples)} {what} "
                      f"({', '.join(f'{v:.4g}' for v in samples)})")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer_time(report: Report, prefix: str, seconds: float,
                wall: float) -> None:
    report.metric(f"{prefix}.self_s", seconds,
                  f"s, {_ratio(seconds, wall):.1%} of wall")
    if prefix in SHARED_LAYERS or prefix in dict(VECTOR_LAYERS):
        report.metric(f"{prefix}.share", _ratio(seconds, wall),
                      "share of wall")


def _layer_counts(report: Report, builds: int, sets: int,
                  counters: dict) -> None:
    hits, misses = counters["cache.ugs.hit"], counters["cache.ugs.miss"]
    report.metric("unroll.tables.calls", builds, "table builds")
    report.metric("reuse.ugs.sets", sets, "uniformly generated sets "
                                           "partitioned")
    report.metric("engine.ugscache.hits", hits, "per-UGS table hits")
    report.metric("engine.ugscache.misses", misses, "per-UGS table misses")
    report.metric("engine.ugscache.hit_ratio", _ratio(hits, hits + misses),
                  f"{hits} / {hits + misses} probes")
    report.metric("engine.dedup.hits", counters["engine.dedup.hits"],
                  "structural twins answered without a computation")
    for family in ("tables", "artifacts"):
        h = counters[f"cache.{family}.hit"]
        probes = h + counters[f"cache.{family}.miss"]
        report.metric(f"engine.{family}.hit_ratio", _ratio(h, probes),
                      f"{h} / {probes} memo probes")


def _serve_idle(report: Report) -> None:
    for name, _ in PER_LAYER:
        if name.startswith("serve."):
            report.metric(name, 0.0, "idle: no server in this workload")


def _vector_idle(report: Report) -> None:
    for prefix, _ in VECTOR_LAYERS:
        _layer_time(report, prefix, 0.0, 1.0)


def _trace_rows(report: Report, wall: float, attributed: float,
                untraced_wall: float, untraced_label: str) -> None:
    report.metric("trace.unattributed.share",
                  _ratio(wall - attributed, wall),
                  f"{wall - attributed:.3f} s of {wall:.3f} s in no named "
                  f"layer")
    report.metric("trace.overhead", _ratio(wall, untraced_wall) - 1.0,
                  f"traced {wall:.3f} s vs {untraced_label} "
                  f"{untraced_wall:.3f} s")


# -- entry point ----------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_program()

    stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    warm_bytecode()
    probe = host_probe()
    report = Report()
    if args.workload == "serve_mixed":
        (serve_traced if args.trace else serve_workload)(
            args.seed, args.seconds, report)
    elif args.trace:
        corpus_traced(args.seed, args.seconds, report)
    else:
        corpus_workload(args.seed, args.seconds, report)

    wanted = PER_LAYER if args.trace else END_TO_END
    units = dict(wanted)
    missing = [name for name in units if name not in report.values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    failed_share = _ratio(report.failed, report.attempted)
    print(f"host: {stamp}, probe {probe * 1e3:.1f} ms (recorded, not used "
          f"to scale any metric); held-out seed {HELD_OUT_SEED}")
    print("\n".join(report.lines))
    print(f"  failed_share {failed_share:.4f} ({report.failed} of "
          f"{report.attempted} attempted)"
          + (f": {'; '.join(report.problems)}" if report.problems else ""))
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "runs.jsonl", "a") as log:
        log.write(json.dumps({"time": stamp, "probe_s": probe,
                              "workload": args.workload, "seed": args.seed,
                              "seconds": args.seconds, "trace": args.trace,
                              "failed": report.failed,
                              "attempted": report.attempted,
                              "metrics": {n: report.values[n]
                                          for n in units}}) + "\n")
    print(json.dumps({
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": report.values[name], "unit": unit}
                    for name, unit in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
