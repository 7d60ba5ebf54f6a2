"""One pass of an in-process workload, in a fresh interpreter.

    python3 perfbench/corpus_pass.py WORKLOAD MODE [TRACE_OUT] < specs.json

``run.py`` starts this once per pass, because the program's module-level
memo tables outlive an engine: only a new interpreter is cold.  The pass
prints ``ready`` once imports and the engine exist (the parent times
set-up up to that line).  It then reads the pass's nests from standard
input, as a JSON list of serialized nests (``repro.api.serialize_nest``),
and prints one JSON line with every answer (in input order), the
per-nest latencies and the engine's counters.  A pass of no nests only
sets up.

Each nest is met cold once, in stream order, and re-optimized once right
after, on the now warm engine.  The warm repeats so cover the same nests
as the cold calls and are spread over the whole pass, sampling the host's
speed as the cold calls do.

``MODE`` is ``engine`` (the public API) or ``traced``: the same
decisions, decomposed into the public analysis functions that
:func:`repro.unroll.optimize.choose_unroll` accepts as injections, with
one span around each call.  The decomposed pipeline mirrors the engine's
memo tables, so its counts must equal the engine's; ``run.py`` checks
that.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from collections import OrderedDict

from common import BOUND, MAX_LOOPS, TRIP, require_program

require_program()

WORKLOADS = {
    # machine, cache_model, vectorize, streamed through optimize_stream
    "corpus_cold": ("alpha", "binary", False, True),
    "corpus_vector": ("future", "assoc", True, False),
}

#: Engine counters the decomposed pipeline must reproduce exactly.
COUNTERS = ("cache.ugs.hit", "cache.ugs.miss", "engine.dedup.hits",
            "cache.tables.hit", "cache.tables.miss",
            "cache.artifacts.hit", "cache.artifacts.miss")


def _answer(result) -> dict:
    return {"unroll": list(result.unroll),
            "objective": str(result.objective),
            "dims": list(result.space.dims),
            "bounds": list(result.space.bounds)}


def read_nests() -> list:
    """The pass's nests, parsed from the serialized specs on stdin."""
    from repro.api import coerce_nest

    return [coerce_nest(spec) for spec in json.load(sys.stdin)]


def run_engine(workload: str) -> dict:
    from repro import api
    from repro.engine import AnalysisEngine

    machine, cache_model, vectorize, streamed = WORKLOADS[workload]
    engine = AnalysisEngine()
    print("ready", flush=True)

    nests = read_nests()
    options = dict(machine=machine, bound=BOUND, max_loops=MAX_LOOPS,
                   trip=TRIP, engine=engine)

    def optimize(nest) -> dict:
        try:
            result = api.optimize(nest, cache_model=cache_model,
                                  vectorize=vectorize, **options)
        except Exception as err:  # a failed nest is a counted failure
            return {"error": f"{type(err).__name__}: {err}"}
        return _answer(result)

    def cold_items():
        if streamed:
            for item in api.optimize_stream(nests, **options):
                yield (_answer(item.result) if item.ok
                       else {"error": item.error})
        else:
            for nest in nests:
                yield optimize(nest)

    answers, cold, warm, warm_s = [], [], [], []
    last = time.perf_counter()
    for index, answer in enumerate(cold_items()):
        cold.append(time.perf_counter() - last)
        answers.append(answer)
        t0 = time.perf_counter()
        warm.append(optimize(nests[index]))
        warm_s.append(time.perf_counter() - t0)
        last = time.perf_counter()

    counters = engine.metrics.counters
    return {"answers": answers, "cold_s": cold, "warm": warm,
            "warm_s": warm_s, "total_s": sum(cold) + sum(warm_s),
            "counters": {name: counters.get(name, 0) for name in COUNTERS}}


class _LRU(OrderedDict):
    """The engine memo's eviction policy, so the mirror's hit counts equal
    the engine's (the capacity is read from a default engine)."""

    def __init__(self, capacity: int):
        super().__init__()
        self.capacity = capacity

    def probe(self, key):
        if key not in self:
            return None
        self.move_to_end(key)
        return self[key]

    def put(self, key, value) -> None:
        self[key] = value
        self.move_to_end(key)
        while len(self) > self.capacity:
            self.popitem(last=False)


def run_traced(workload: str, trace_out: str) -> dict:
    from repro.api import coerce_machine
    from repro.dependence.graph import build_dependence_graph
    from repro.engine import AnalysisEngine
    from repro.obs.trace import Tracer, span
    from repro.reuse.locality import loop_locality_scores
    from repro.reuse.profile import AssocMissModel, reuse_profile
    from repro.reuse.ugs import partition_ugs
    from repro.unroll.optimize import choose_unroll
    from repro.unroll.safety import safe_unroll_bounds
    from repro.unroll.tables import build_tables

    machine_name, cache_model, vectorize, streamed = WORKLOADS[workload]
    machine = coerce_machine(machine_name)
    line = machine.cache_line_words
    tracer = Tracer(enabled=True, buffer_size=10_000_000)
    # A default engine supplies the memo capacity and its own UGS cache,
    # so the mirror keeps no copy of the engine's sizing rules.
    engine = AnalysisEngine()
    capacity = engine.cache_stats()["memory"]["capacity"]
    ugs_cache = engine.ugs_cache
    artifacts, profiles, tables = (_LRU(capacity), _LRU(capacity),
                                   _LRU(capacity))
    counts = {name: 0 for name in COUNTERS}
    counts["reuse.ugs.sets"] = 0
    print("ready", flush=True)

    nests = read_nests()

    def layer(name: str, **attrs):
        return span(name, tracer=tracer, **attrs)

    def analyze(nest, key):
        cached = artifacts.probe(key)
        if cached is not None:
            counts["cache.artifacts.hit"] += 1
            return cached
        counts["cache.artifacts.miss"] += 1
        with layer("dependence"):
            graph = build_dependence_graph(nest, include_input=False)
        with layer("unroll.safety"):
            safety = safe_unroll_bounds(nest, graph)
        with layer("reuse.locality"):
            scores = tuple(loop_locality_scores(nest, line_size=line))
        with layer("reuse.ugs"):
            ugs = tuple(partition_ugs(nest))
        counts["reuse.ugs.sets"] += len(ugs)
        entry = (graph, safety, scores, ugs)
        artifacts.put(key, entry)
        return entry

    def decide(nest) -> dict:
        key = nest.structural_key()
        graph, safety, scores, ugs = analyze(nest, key)
        miss_model = None
        if cache_model == "assoc":
            profile = profiles.probe(key)
            if profile is None:
                analyze(nest, key)
                with layer("reuse.profile"):
                    profile = reuse_profile(nest, line_size=line, trip=TRIP,
                                            ugs=ugs)
                profiles.put(key, profile)
            miss_model = AssocMissModel.for_machine(profile, machine)

        def tables_builder(target, space, line_size, trip):
            tkey = (key, space.dims, space.bounds, line_size, trip)
            cached = tables.probe(tkey)
            if cached is not None:
                counts["cache.tables.hit"] += 1
                return cached
            counts["cache.tables.miss"] += 1
            with layer("unroll.tables"):
                built = build_tables(target, space, line_size=line_size,
                                     trip=trip, ugs=list(ugs),
                                     ugs_cache=ugs_cache)
            tables.put(tkey, built)
            return built

        return _answer(choose_unroll(
            nest, machine, BOUND, MAX_LOOPS, True, TRIP, graph=graph,
            safety=safety, scores=scores, tables_builder=tables_builder,
            stage=lambda name: layer(f"unroll.{name}"),
            miss_model=miss_model, vectorize=vectorize))

    answers, warm = [], []
    seen: dict = {}
    start = time.perf_counter()
    for index, nest in enumerate(nests):
        with layer("bench.nest", index=index):
            key = nest.structural_key()
            if streamed and key in seen:
                counts["engine.dedup.hits"] += 1
                answers.append(seen[key])
            else:
                answers.append(decide(nest))
                seen[key] = answers[-1]
        with layer("bench.nest", index=index, warm=True):
            warm.append(decide(nest))
    total = time.perf_counter() - start
    counts["cache.ugs.hit"] = engine.metrics.counter("cache.ugs.hit")
    counts["cache.ugs.miss"] = engine.metrics.counter("cache.ugs.miss")
    tracer.write_chrome(trace_out)
    spans = [(s.name, s.span_id, s.parent_id, s.duration_us / 1e6)
             for s in tracer.spans()]
    return {"answers": answers, "warm": warm, "total_s": total,
            "counters": counts, "spans": spans}


def main(argv: list[str]) -> int:
    workload, mode = argv[0], argv[1]
    if mode == "engine":
        out = run_engine(workload)
    else:
        out = run_traced(workload, argv[2])
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024.0)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
