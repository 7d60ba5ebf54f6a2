"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``kernels``                      -- list the Table 2 test loops
* ``show <nest>``                  -- print a nest's source
* ``analyze <nest>``               -- reuse structure and balance
* ``profile <nest>``               -- static reuse-distance profile and
  set-associative miss prediction (docs/REUSE.md)
* ``optimize <nest>``              -- full unroll-and-jam report
* ``simulate <kernel>``            -- trace-driven cycles, before/after
* ``batch <dir|glob|nest>...``     -- optimize a corpus via the engine;
  ``--stream`` yields results as they complete at flat memory
* ``corpus``                       -- stream the seeded synthetic corpus
  (``--count``/``--seed``; ``--out DIR`` writes nest files)
* ``serve``                        -- the HTTP analysis service (docs/SERVING.md);
  ``--workers N`` shards it across N processes (docs/CLUSTER.md)
* ``cluster (status|drain|scale|reload)`` -- administer a sharded router
* ``metrics``                      -- dump metrics (JSON or Prometheus text)
* ``cache (stats|clear)``          -- manage the on-disk table cache
* ``table1``                       -- the input-dependence experiment
* ``figure (alpha|pa)``            -- a Figure 8/9 column

Everywhere a nest is taken, it may be a kernel name, a path to a DO-loop
text file (the format ``show`` prints; see :mod:`repro.ir.parser`), or --
through :func:`repro.api.coerce_nest`, which owns all of that resolution
-- inline DO-loop source.
"""

from __future__ import annotations

import argparse
import glob as _glob
import json
import pathlib
import sys

from repro import api
from repro.ir.nodes import LoopNest
from repro.ir.printer import format_nest
from repro.machine.model import MachineModel

#: File suffixes treated as nest sources when scanning a batch directory.
NEST_SUFFIXES = (".f", ".loop", ".nest", ".txt")

def _machine(name: str) -> MachineModel:
    try:
        return api.coerce_machine(name)
    except ValueError as err:
        raise SystemExit(str(err))

def _nest(spec: str) -> LoopNest:
    try:
        return api.coerce_nest(spec)
    except api.NestResolutionError as err:
        raise SystemExit(str(err))

def _load_nest(spec: str) -> LoopNest:
    """Deprecated shim: the coercion now lives in :func:`repro.api.coerce_nest`."""
    api.warn_deprecated("repro.cli._load_nest", "repro.api.coerce_nest")
    return _nest(spec)

def __getattr__(name: str):
    if name == "MACHINES":
        api.warn_deprecated("repro.cli.MACHINES", "repro.api.MACHINES")
        return dict(api.MACHINES)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

def cmd_kernels(args: argparse.Namespace) -> int:
    from repro.kernels import all_kernels

    print(f"{'num':>3s} {'name':<10s} {'depth':>5s}  description")
    for kernel in all_kernels():
        print(f"{kernel.number:>3d} {kernel.name:<10s} "
              f"{kernel.nest.depth:>5d}  {kernel.description}")
    return 0

def cmd_show(args: argparse.Namespace) -> int:
    print(format_nest(_nest(args.nest)))
    return 0

def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.balance import loop_balance
    from repro.baselines.brute_force import measure_unrolled
    from repro.unroll.report import reuse_summary

    nest = _nest(args.nest)
    machine = _machine(args.machine)
    print(format_nest(nest))
    print()
    print(reuse_summary(nest, machine.cache_line_words))
    zero = tuple(0 for _ in range(nest.depth))
    point = measure_unrolled(nest, zero,
                             line_size=machine.cache_line_words)
    breakdown = loop_balance(point, machine)
    print()
    print(f"flops/iter {point.flops}, memory ops/iter {point.memory_ops}, "
          f"Eq.1 cost {float(point.cache_cost):.3f}")
    print(f"loop balance {float(breakdown.balance):.3f} vs machine "
          f"{float(machine.balance):.3f} on {machine.name}")
    return 0

def cmd_profile(args: argparse.Namespace) -> int:
    from repro.machine.cache import CacheSpec, miss_probability

    nest = _nest(args.nest)
    machine = _machine(args.machine)
    profile = api.reuse_profile(nest, machine, trip=args.trip)
    if args.json:
        print(json.dumps(profile.to_dict(), indent=2))
        return 0
    spec = CacheSpec.for_machine(machine)
    print(f"reuse-distance profile of {profile.nest} "
          f"(depth {profile.depth}, trip {profile.trip})")
    print(f"  {profile.lines_per_iteration:.3f} new line(s)/iteration, "
          f"line size {profile.line_size} words")
    print()
    print(f"{'ref':<20s} {'kind':<14s} {'delay':>10s} {'distance':>10s} "
          f"{'fraction':>9s} {'P(miss)':>8s}")
    for ref in profile.refs:
        name = ref.ref
        for b in ref.bins:
            delay = "-" if b.delay is None else f"{b.delay:.0f}"
            distance = "cold" if b.distance is None else f"{b.distance:.1f}"
            pm = miss_probability(b.distance, spec)
            print(f"{name:<20.20s} {b.kind:<14s} {delay:>10s} "
                  f"{distance:>10s} {b.fraction:>9.3f} {pm:>8.3f}")
            name = ""
    print()
    print(f"cache {spec.describe()} on {machine.name}:")
    print(f"  predicted miss ratio   {profile.miss_ratio(spec):.4f}")
    print(f"  misses/iteration       {profile.misses_per_iteration(spec):.4f}")
    print(f"  cold fraction          {profile.cold_fraction():.4f}")
    print(f"  set-conflict add-on    {profile.conflict_probability(spec):.4f}")
    return 0

def cmd_optimize(args: argparse.Namespace) -> int:
    from repro.unroll.report import optimization_report

    nest = _nest(args.nest)
    machine = _machine(args.machine)
    result = api.optimize(nest, machine, bound=args.bound,
                          include_cache=not args.no_cache,
                          cache_model=args.cache_model,
                          vectorize=args.vectorize)
    print(optimization_report(nest, machine, result=result,
                              bound=args.bound,
                              include_cache=not args.no_cache,
                              show_code=not args.quiet))
    return 0

def cmd_simd(args: argparse.Namespace) -> int:
    import json as _json

    from repro.simd import format_report

    nest = _nest(args.nest)
    machine = _machine(args.machine)
    unroll = (tuple(int(x) for x in args.unroll.split(","))
              if args.unroll else None)
    result, report = api.vectorize(nest, machine, unroll=unroll,
                                   bound=args.bound, trip=args.trip)
    if args.json:
        doc = report.to_dict()
        doc["chosen_unroll"] = list(result.unroll)
        doc["feasible"] = result.feasible
        print(_json.dumps(doc, indent=2, sort_keys=True))
        return 0
    print(f"vectorized search chose unroll {result.unroll} "
          f"(objective {float(result.objective):.3f}, "
          f"feasible {result.feasible})")
    print()
    print(format_report(report))
    return 0

def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.kernels import kernel_by_name
    from repro.machine.simulator import simulate

    try:
        kernel = kernel_by_name(args.kernel)
    except KeyError:
        raise SystemExit(f"simulate needs a named kernel (got "
                         f"{args.kernel!r}); workloads come with kernels")
    machine = _machine(args.machine)
    if args.unroll:
        unroll = tuple(int(x) for x in args.unroll.split(","))
    else:
        unroll = api.optimize(kernel.nest, machine, bound=args.bound).unroll
    base = simulate(kernel.nest, machine, kernel.bindings, kernel.shapes)
    opt = simulate(kernel.nest, machine, kernel.bindings, kernel.shapes,
                   unroll=unroll)
    print(f"kernel {kernel.name} on {machine.name}, unroll {unroll}")
    print(f"  original: {float(base.cycles):>14.0f} cycles "
          f"({base.cache_misses} misses)")
    print(f"  unrolled: {float(opt.cycles):>14.0f} cycles "
          f"({opt.cache_misses} misses)")
    print(f"  normalized time: {opt.normalized_to(base):.3f}")
    return 0

def cmd_prefetch(args: argparse.Namespace) -> int:
    from repro.unroll.prefetch import format_plan, plan_prefetch

    nest = _nest(args.nest)
    machine = _machine(args.machine)
    print(format_plan(plan_prefetch(nest, machine)))
    return 0

def cmd_export(args: argparse.Namespace) -> int:
    from repro.dependence import build_dependence_graph
    from repro.dependence.export import summarize, to_dot

    nest = _nest(args.nest)
    graph = build_dependence_graph(nest,
                                   include_input=not args.no_input)
    if args.format == "dot":
        print(to_dot(graph, include_input=not args.no_input))
    else:
        print(summarize(graph))
        for dep in graph:
            print(f"  {dep.pretty()}")
    return 0

def cmd_distribute(args: argparse.Namespace) -> int:
    from repro.transforms.distribution import distribute

    nest = _nest(args.nest)
    pieces = distribute(nest)
    print(f"{nest.name}: {len(pieces)} pi-block(s)")
    for piece in pieces:
        print()
        print(format_nest(piece))
    return 0

def cmd_schedule(args: argparse.Namespace) -> int:
    from repro.machine.schedule import schedule_body
    from repro.unroll.transform import unroll_and_jam

    nest = _nest(args.nest)
    machine = _machine(args.machine)
    if args.unroll:
        unroll = tuple(int(x) for x in args.unroll.split(","))
        nest = unroll_and_jam(nest, unroll).main
    result = schedule_body(nest, machine)
    print(f"schedule of {nest.name} on {machine.name}:")
    print(f"  memory ops {result.memory_ops}, fp ops {result.fp_ops}")
    print(f"  makespan {result.makespan} cycles, critical path "
          f"{result.critical_path}")
    print(f"  steady-state initiation interval "
          f"{float(result.initiation_interval):.2f} cycles/iteration")
    return 0

def _collect_batch_specs(patterns: list[str]) -> list:
    """Expand each argument: directory -> nest files inside it, glob ->
    matches, anything else -> passed through to the shared coercion (so
    kernel names and plain paths work too)."""
    specs: list = []
    for pattern in patterns:
        path = pathlib.Path(pattern)
        if path.is_dir():
            specs.extend(sorted(
                child for child in path.iterdir()
                if child.suffix in NEST_SUFFIXES and child.is_file()))
            continue
        matches = sorted(_glob.glob(pattern))
        if matches:
            specs.extend(pathlib.Path(m) for m in matches)
        else:
            specs.append(pattern)
    return specs

def cmd_batch(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.engine import AnalysisEngine

    specs = _collect_batch_specs(args.inputs)
    if not specs:
        raise SystemExit("no nests matched; pass a directory, a glob, "
                         "nest files, or kernel names")
    profiler = None
    if args.profile:
        profiler = obs.Profiler(enabled=True)
    if args.trace_out:
        obs.configure(enabled=True)
    engine = AnalysisEngine(disk_cache=args.cache,
                            cache_dir=args.cache_dir, profiler=profiler)
    if args.stream:
        return _batch_stream(args, engine, specs)
    report = api.optimize_many(specs, machine=args.machine,
                               workers=args.workers, bound=args.bound,
                               engine=engine)
    if args.trace_out:
        obs.get_tracer().write_chrome(args.trace_out)
        print(f"wrote trace to {args.trace_out}", file=sys.stderr)
    if profiler is not None:
        target = profiler.write(args.profile_out)
        print(f"wrote profile to {target}", file=sys.stderr)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
        return 1 if report.failures else 0
    print(f"{'name':<24s} {'unroll':<12s} {'balance':>8s} "
          f"{'feasible':>8s} {'time':>8s}")
    for item in report.items:
        if item.ok and item.result is not None:
            print(f"{item.name:<24.24s} {str(item.result.unroll):<12s} "
                  f"{float(item.result.balance):>8.3f} "
                  f"{str(item.result.feasible):>8s} "
                  f"{item.duration_s:>7.3f}s")
        else:
            print(f"{item.name:<24.24s} FAILED: {item.error}")
    print()
    print(f"{len(report.items)} nest(s), {len(report.failures)} failure(s), "
          f"{report.wall_time_s:.3f}s ({report.nests_per_sec:.1f} nests/sec)")
    return 1 if report.failures else 0

def _batch_stream(args: argparse.Namespace, engine, specs) -> int:
    """``repro batch --stream``: emit each result as it completes.

    Results are printed (or, with ``--json``, written as one JSON object
    per line) the moment they arrive, and nothing accumulates a report --
    peak memory stays flat however large the corpus is.  Every row
    carries its input index.
    """
    import time as _time

    start = _time.monotonic()
    total = 0
    failures = 0
    if not args.json:
        print(f"{'idx':>6s} {'name':<24s} {'unroll':<12s} {'balance':>8s} "
              f"{'feasible':>8s}")
    for item in api.optimize_stream(specs, machine=args.machine,
                                    workers=args.workers, bound=args.bound,
                                    engine=engine):
        total += 1
        if not item.ok:
            failures += 1
        if args.json:
            print(json.dumps(item.to_dict()), flush=True)
        elif item.ok and item.result is not None:
            print(f"{item.index:>6d} {item.name:<24.24s} "
                  f"{str(item.result.unroll):<12s} "
                  f"{float(item.result.balance):>8.3f} "
                  f"{str(item.result.feasible):>8s}", flush=True)
        else:
            print(f"{item.index:>6d} {item.name:<24.24s} "
                  f"FAILED: {item.error}", flush=True)
    wall = _time.monotonic() - start
    rate = total / wall if wall > 0 else 0.0
    summary = (f"{total} nest(s), {failures} failure(s), {wall:.3f}s "
               f"({rate:.1f} nests/sec), dedup hits "
               f"{engine.metrics.counter('engine.dedup.hits')}")
    print(summary, file=sys.stderr if args.json else sys.stdout)
    return 1 if failures else 0

def cmd_corpus(args: argparse.Namespace) -> int:
    """``repro corpus``: stream the seeded synthetic corpus.

    Generation is lazy (:func:`repro.corpus.iter_corpus`), so
    ``--count 100000`` writes or prints nests one at a time without ever
    holding the corpus in memory.
    """
    from repro.corpus import CorpusConfig, iter_corpus

    defaults = CorpusConfig()
    count = args.count if args.count is not None else defaults.routines
    config = CorpusConfig(routines=count, seed=args.seed)
    written = 0
    if args.out:
        outdir = pathlib.Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        for nest in iter_corpus(config):
            path = outdir / f"{nest.name}.loop"
            path.write_text(format_nest(nest) + "\n")
            written += 1
        print(f"wrote {written} nest(s) to {outdir} (seed {args.seed})")
        return 0
    for nest in iter_corpus(config):
        if written:
            print()
        print(f"* {nest.name}")
        print(format_nest(nest))
        written += 1
    print(f"\n{written} nest(s), seed {args.seed}", file=sys.stderr)
    return 0

def cmd_serve(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.engine import AnalysisEngine, default_cache_dir
    from repro.serve.batcher import BatchConfig
    from repro.serve.server import ServeConfig, run_server

    if args.machine not in api.MACHINES:
        raise SystemExit(f"unknown machine {args.machine!r}; choose from "
                         f"{sorted(api.MACHINES)}")
    if args.workers and args.workers > 0:
        # Sharded mode: N worker processes behind the consistent-hash
        # router (docs/CLUSTER.md).  --workers 0 (default) keeps the
        # classic single-process server.
        from repro.cluster import ClusterConfig, run_cluster

        cluster = ClusterConfig(
            workers=args.workers, host=args.host, port=args.port,
            machine=args.machine, max_body=args.max_body,
            request_timeout_s=args.timeout,
            drain_grace_s=args.drain_grace,
            metrics_path=args.metrics_out,
            cache_dir=(str(args.cache_dir or default_cache_dir())
                       if args.cache else None),
            trace=args.trace,
            worker_threads=args.threads,
            worker_queue_limit=args.queue_limit)
        return run_cluster(cluster)
    config = ServeConfig(
        host=args.host, port=args.port, machine=args.machine,
        max_body=args.max_body, request_timeout_s=args.timeout,
        shutdown_grace_s=args.drain_grace,
        metrics_path=args.metrics_out,
        batch=BatchConfig(queue_limit=args.queue_limit,
                          threads=args.threads))
    profiler = obs.Profiler(enabled=True) if args.profile else None
    if args.trace:
        obs.configure(enabled=True)
    engine = AnalysisEngine(disk_cache=args.cache, cache_dir=args.cache_dir,
                            profiler=profiler)
    return run_server(config, engine)

def cmd_cluster(args: argparse.Namespace) -> int:
    from repro.cluster.admin import run_admin

    return run_admin(args.action, args.host, args.port, to=args.to,
                     timeout=args.timeout, as_json=args.json)

def cmd_metrics(args: argparse.Namespace) -> int:
    from repro import obs

    if args.from_file:
        try:
            document = json.loads(
                pathlib.Path(args.from_file).read_text())
        except (OSError, json.JSONDecodeError) as err:
            raise SystemExit(f"cannot read metrics document "
                             f"{args.from_file!r}: {err}")
    else:
        from repro.serve.client import Client

        client = Client(args.host, args.port, transport="json",
                        max_retries=0)
        try:
            status, document = client.metrics()
        except OSError as err:
            raise SystemExit(f"cannot scrape http://{args.host}:"
                             f"{args.port}/metrics: {err}")
        finally:
            client.close()
        if status != 200:
            raise SystemExit(f"GET /metrics answered HTTP {status}")
    if args.format == "json":
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(obs.document_to_exposition(document), end="")
    return 0

def cmd_cache(args: argparse.Namespace) -> int:
    from repro.engine import clear_disk_cache, disk_cache_stats

    if args.action == "stats":
        stats = disk_cache_stats(args.dir)
        print(f"cache dir: {stats['dir']}")
        print(f"entries:   {stats['entries']}")
        print(f"ugs sets:  {stats['ugs_entries']}")
        print(f"bytes:     {stats['bytes']}")
    else:
        removed = clear_disk_cache(args.dir)
        print(f"removed {removed} cached table file(s)")
    return 0

def cmd_table1(args: argparse.Namespace) -> int:
    from repro.corpus import CorpusConfig
    from repro.experiments.table1 import run_table1

    report = run_table1(CorpusConfig(routines=args.routines, seed=args.seed))
    print(report.format())
    return 0

def cmd_figure(args: argparse.Namespace) -> int:
    machine = _machine(args.machine)
    if args.simd:
        from repro.experiments.simd_figure import (
            format_simd_figure,
            run_simd_figure,
        )

        rows = run_simd_figure(machine, bound=args.bound)
        print(format_simd_figure(
            rows, f"Estimated cycles/iteration on {machine.name} "
                  f"(SIMD objective on vs off)"))
        return 0
    from repro.experiments.figures import format_figure, run_figure

    rows = run_figure(machine, bound=args.bound)
    title = f"Normalized execution time on {machine.name}"
    print(format_figure(rows, title))
    return 0

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Unroll-and-jam using uniformly generated sets "
                    "(Carr & Guan, MICRO 1997)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("kernels", help="list the Table 2 loops") \
        .set_defaults(func=cmd_kernels)

    p_show = sub.add_parser("show", help="print a nest")
    p_show.add_argument("nest")
    p_show.set_defaults(func=cmd_show)

    p_analyze = sub.add_parser("analyze", help="reuse structure and balance")
    p_analyze.add_argument("nest")
    p_analyze.add_argument("--machine", default="alpha")
    p_analyze.set_defaults(func=cmd_analyze)

    p_prof = sub.add_parser(
        "profile", help="static reuse-distance profile and set-associative "
                        "miss prediction (see docs/REUSE.md)")
    p_prof.add_argument("nest")
    p_prof.add_argument("--machine", default="alpha")
    p_prof.add_argument("--trip", type=int, default=100,
                        help="per-loop trip count the delays scale with")
    p_prof.add_argument("--json", action="store_true",
                        help="emit the profile document as JSON")
    p_prof.set_defaults(func=cmd_profile)

    p_opt = sub.add_parser("optimize", help="full unroll-and-jam report")
    p_opt.add_argument("nest")
    p_opt.add_argument("--machine", default="alpha")
    p_opt.add_argument("--bound", type=int, default=8)
    p_opt.add_argument("--no-cache", action="store_true",
                       help="use the cache-oblivious balance model")
    p_opt.add_argument("--cache-model", choices=("binary", "assoc"),
                       default="binary",
                       help="miss model for ranking unroll vectors: the "
                            "paper's binary Equation-1 charge, or the "
                            "set-associative reuse-profile estimate "
                            "(docs/REUSE.md)")
    p_opt.add_argument("--vectorize", action="store_true",
                       help="rank unroll vectors with the SLP lane cost "
                            "model (docs/VECTORIZE.md); needs a machine "
                            "with a vector unit to differ from the default")
    p_opt.add_argument("--quiet", action="store_true",
                       help="omit code listings")
    p_opt.set_defaults(func=cmd_optimize)

    p_simd = sub.add_parser(
        "simd", help="vectorization-aware unroll-and-jam: SLP packs, "
                     "schedule and lane cost estimate (docs/VECTORIZE.md)")
    p_simd.add_argument("nest")
    p_simd.add_argument("--machine", default="future",
                        help="machine preset (default: future, the "
                             "vector-capable one)")
    p_simd.add_argument("--unroll", default="",
                        help="comma-separated unroll vector (default: let "
                             "the vectorized search choose)")
    p_simd.add_argument("--bound", type=int, default=8)
    p_simd.add_argument("--trip", type=int, default=100)
    p_simd.add_argument("--json", action="store_true",
                        help="emit the report as JSON")
    p_simd.set_defaults(func=cmd_simd)

    p_sim = sub.add_parser("simulate", help="trace-driven before/after")
    p_sim.add_argument("kernel")
    p_sim.add_argument("--machine", default="alpha")
    p_sim.add_argument("--unroll", default="",
                       help="comma-separated unroll vector (default: let "
                            "the optimizer choose)")
    p_sim.add_argument("--bound", type=int, default=6)
    p_sim.set_defaults(func=cmd_simulate)

    p_batch = sub.add_parser(
        "batch", help="optimize a corpus through the analysis engine")
    p_batch.add_argument("inputs", nargs="+",
                         help="directories, globs, nest files, or kernel "
                              "names")
    p_batch.add_argument("--machine", default="alpha")
    p_batch.add_argument("--bound", type=int, default=8)
    p_batch.add_argument("--workers", type=int, default=None,
                         help="deprecated: every batch runs in-process; "
                              "use 'repro serve --workers N' for more "
                              "than one core")
    p_batch.add_argument("--json", action="store_true",
                         help="emit the full report (items + metrics) as "
                              "JSON")
    p_batch.add_argument("--cache", action="store_true",
                         help="use the on-disk table cache")
    p_batch.add_argument("--cache-dir", default=None,
                         help="override the cache location")
    p_batch.add_argument("--profile", action="store_true",
                         help="cProfile the engine stages (or set "
                              "REPRO_PROFILE=1)")
    p_batch.add_argument("--profile-out",
                         default="results/batch_profile.json",
                         help="where the per-stage top-N summary lands")
    p_batch.add_argument("--trace-out", default=None,
                         help="write a Chrome trace_event JSON here "
                              "(implies tracing on)")
    p_batch.add_argument("--stream", action="store_true",
                         help="stream results as they complete instead of "
                              "collecting a report: flat memory for huge "
                              "corpora; with --json, one JSON object per "
                              "line (docs/PERFORMANCE.md)")
    p_batch.set_defaults(func=cmd_batch)

    p_corpus = sub.add_parser(
        "corpus", help="generate the seeded synthetic corpus, streaming")
    p_corpus.add_argument("--count", type=int, default=None,
                          help="number of routines (default: the Table 1 "
                               "corpus size)")
    p_corpus.add_argument("--seed", type=int, default=1997)
    p_corpus.add_argument("--out", default=None, metavar="DIR",
                          help="write one .loop file per nest into DIR "
                               "(feeds 'repro batch DIR'); default prints "
                               "sources to stdout")
    p_corpus.set_defaults(func=cmd_corpus)

    p_serve = sub.add_parser(
        "serve", help="run the HTTP analysis service (see docs/SERVING.md)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8787,
                         help="listen port (0 picks a free one, announced "
                              "on stdout)")
    p_serve.add_argument("--machine", default="alpha",
                         help="default machine preset for requests that "
                              "omit one")
    p_serve.add_argument("--queue-limit", type=int, default=256,
                         help="distinct pending requests admitted before "
                              "429s")
    p_serve.add_argument("--threads", type=int, default=4,
                         help="inline executor threads (per worker in "
                              "sharded mode)")
    p_serve.add_argument("--workers", type=int, default=0,
                         help="run N sharded worker processes behind the "
                              "consistent-hash router (0 = single-process "
                              "server; see docs/CLUSTER.md)")
    p_serve.add_argument("--timeout", type=float, default=30.0,
                         help="per-request timeout in seconds")
    p_serve.add_argument("--drain-grace", type=float, default=30.0,
                         help="seconds to let in-flight work finish on "
                              "shutdown")
    p_serve.add_argument("--max-body", type=int, default=64 * 1024,
                         help="request body limit in bytes")
    p_serve.add_argument("--metrics-out", default=None,
                         help="flush the final metrics snapshot here on "
                              "shutdown")
    p_serve.add_argument("--cache", action="store_true",
                         help="use the on-disk table cache")
    p_serve.add_argument("--cache-dir", default=None,
                         help="override the cache location")
    p_serve.add_argument("--profile", action="store_true",
                         help="cProfile engine stages and served jobs; "
                              "the summary flushes next to --metrics-out")
    p_serve.add_argument("--trace", action="store_true",
                         help="record trace spans (or set REPRO_TRACE=1)")
    p_serve.set_defaults(func=cmd_serve)

    p_cluster = sub.add_parser(
        "cluster", help="administer a running sharded router "
                        "(see docs/CLUSTER.md)")
    p_cluster.add_argument("action",
                           choices=("status", "drain", "scale", "reload"))
    p_cluster.add_argument("--host", default="127.0.0.1")
    p_cluster.add_argument("--port", type=int, default=8787)
    p_cluster.add_argument("--to", type=int, default=None,
                           help="target worker count (scale)")
    p_cluster.add_argument("--timeout", type=float, default=120.0,
                           help="HTTP timeout; a rolling reload can take "
                                "a while")
    p_cluster.add_argument("--json", action="store_true",
                           help="print raw JSON instead of the status "
                                "table")
    p_cluster.set_defaults(func=cmd_cluster)

    p_met = sub.add_parser(
        "metrics", help="dump metrics as Prometheus text or JSON")
    p_met.add_argument("--host", default="127.0.0.1")
    p_met.add_argument("--port", type=int, default=8787)
    p_met.add_argument("--from", dest="from_file", default=None,
                       metavar="PATH",
                       help="render a saved metrics JSON document instead "
                            "of scraping a live server")
    p_met.add_argument("--format", choices=("prometheus", "json"),
                       default="prometheus")
    p_met.set_defaults(func=cmd_metrics)

    p_cache = sub.add_parser("cache", help="on-disk table cache")
    p_cache.add_argument("action", choices=("stats", "clear"))
    p_cache.add_argument("--dir", default=None,
                         help="cache location (default: ~/.cache/repro or "
                              "$REPRO_CACHE_DIR)")
    p_cache.set_defaults(func=cmd_cache)

    p_pf = sub.add_parser("prefetch", help="software-prefetch plan")
    p_pf.add_argument("nest")
    p_pf.add_argument("--machine", default="alpha")
    p_pf.set_defaults(func=cmd_prefetch)

    p_exp = sub.add_parser("export", help="dependence graph (text or DOT)")
    p_exp.add_argument("nest")
    p_exp.add_argument("--format", choices=("text", "dot"), default="text")
    p_exp.add_argument("--no-input", action="store_true",
                       help="omit input dependences (the UGS compiler view)")
    p_exp.set_defaults(func=cmd_export)

    p_dist = sub.add_parser("distribute", help="loop distribution")
    p_dist.add_argument("nest")
    p_dist.set_defaults(func=cmd_distribute)

    p_sched = sub.add_parser("schedule", help="list-schedule the body")
    p_sched.add_argument("nest")
    p_sched.add_argument("--machine", default="alpha")
    p_sched.add_argument("--unroll", default="",
                         help="unroll-and-jam first (comma-separated)")
    p_sched.set_defaults(func=cmd_schedule)

    p_t1 = sub.add_parser("table1", help="input-dependence experiment")
    p_t1.add_argument("--routines", type=int, default=400)
    p_t1.add_argument("--seed", type=int, default=1997)
    p_t1.set_defaults(func=cmd_table1)

    p_fig = sub.add_parser("figure", help="Figure 8/9 series")
    p_fig.add_argument("--machine", default="alpha")
    p_fig.add_argument("--bound", type=int, default=6)
    p_fig.add_argument("--simd", action="store_true",
                       help="the SIMD on/off analog instead: scalar vs "
                            "vectorized objective under the lane cost "
                            "model (docs/VECTORIZE.md)")
    p_fig.set_defaults(func=cmd_figure)

    return parser

def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)

if __name__ == "__main__":
    sys.exit(main())
