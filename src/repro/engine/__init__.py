"""The batch analysis engine: memoized per-nest artifacts + corpus fan-out.

The paper's efficiency claim is that the precomputed GTS/GSS/RRS/RL tables
answer balance and register-pressure queries for *every* unroll vector
without re-unrolling.  :class:`AnalysisEngine` extends that claim across
nests and across runs:

* every expensive per-nest artifact (dependence graph, locality scores,
  safety bounds, :class:`~repro.unroll.tables.UnrollTables`) is memoized
  behind :meth:`repro.ir.nodes.LoopNest.structural_key` -- structurally
  identical nests (including loop-variable renamings) share one analysis;
* the in-process memo is a bounded LRU; tables can additionally persist to
  an on-disk JSON cache (default ``~/.cache/repro/``, override with the
  ``REPRO_CACHE_DIR`` environment variable) reusing
  :mod:`repro.unroll.serialize`;
* :meth:`AnalysisEngine.optimize_many` fans a corpus out over a process
  pool with picklable task/result envelopes and per-nest error capture, so
  one malformed nest degrades to a reported failure instead of killing the
  batch;
* every stage is instrumented through :mod:`repro.engine.metrics`.

``engine.optimize(nest, machine)`` is guaranteed to return the same
decision as :func:`repro.unroll.optimize.choose_unroll` -- the test suite
and ``benchmarks/bench_engine_throughput.py`` enforce vector-level parity.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover -- type names only
    from repro.engine.shared import SharedTableStore
    from repro.reuse.profile import NestReuseProfile

from repro.dependence.graph import DependenceGraph, build_dependence_graph
from repro.engine.metrics import Metrics
from repro.engine.ugscache import UgsTableCache
from repro.ir.nodes import LoopNest
from repro.obs import profile as _obs_profile
from repro.obs import trace as _obs_trace
from repro.obs.trace import span as _span
from repro.machine.model import MachineModel
from repro.reuse.locality import loop_locality_scores
from repro.reuse.ugs import UniformlyGeneratedSet, partition_ugs
from repro.unroll.optimize import OptimizationResult, choose_unroll
from repro.unroll.safety import safe_unroll_bounds
from repro.unroll.serialize import tables_from_json, tables_to_json
from repro.unroll.space import DEFAULT_BOUND, UnrollSpace
from repro.unroll.tables import UnrollTables, build_tables

__all__ = [
    "AnalysisEngine",
    "BatchError",
    "BatchItem",
    "BatchReport",
    "NestArtifacts",
    "clear_disk_cache",
    "default_cache_dir",
    "disk_cache_stats",
]

#: Bump when the on-disk key derivation or payload layout changes.
DISK_FORMAT_VERSION = 1

def default_cache_dir() -> pathlib.Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return pathlib.Path(override).expanduser()
    return pathlib.Path.home() / ".cache" / "repro"

class _LRU:
    """A bounded mapping with least-recently-used eviction.

    Thread-safe: the serving layer calls into one engine from a pool of
    worker threads, so every access (including the recency bump inside
    :meth:`get`) happens under a per-instance lock.  Concurrent misses on
    the same key may both compute and :meth:`put`; the artifacts an engine
    caches are deterministic per key, so the duplicate work is benign.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("LRU capacity must be positive")
        self.capacity = capacity
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key):
        with self._lock:
            if key not in self._data:
                return None
            self._data.move_to_end(key)
            return self._data[key]

    def put(self, key, value) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._data

@dataclass(frozen=True)
class NestArtifacts:
    """The memoized analysis bundle for one structural equivalence class.

    When a cache hit serves a *renamed* twin of the nest that was analyzed
    first, the artifacts reference that first nest's occurrences; every
    numeric quantity (safety bounds, locality scores, table values) is
    identical across the class by construction of
    :meth:`LoopNest.structural_key`.
    """

    key: str
    graph: DependenceGraph  # the UGS compiler view: no input dependences
    safety: tuple[int, ...]
    locality: tuple[Fraction, ...]
    ugs: tuple[UniformlyGeneratedSet, ...]
    line_size: int

@dataclass(frozen=True)
class BatchError:
    """An input that failed before reaching the engine (e.g. coercion)."""

    name: str
    message: str

@dataclass
class BatchItem:
    """Per-nest envelope of :meth:`AnalysisEngine.optimize_many`."""

    index: int
    name: str
    ok: bool
    result: OptimizationResult | None = None
    error: str | None = None
    duration_s: float = 0.0
    metrics: dict | None = None  # worker-side snapshot, merged by the parent
    spans: list | None = None    # worker-side trace spans, ingested likewise

    def to_dict(self) -> dict:
        row: dict = {"index": self.index, "name": self.name, "ok": self.ok,
                     "duration_s": self.duration_s}
        if self.ok and self.result is not None:
            row["unroll"] = list(self.result.unroll)
            row["balance"] = float(self.result.balance)
            row["objective"] = float(self.result.objective)
            row["feasible"] = self.result.feasible
        else:
            row["error"] = self.error
        return row

@dataclass
class BatchReport:
    """Everything :meth:`AnalysisEngine.optimize_many` learned."""

    items: list[BatchItem]
    workers: int
    wall_time_s: float
    metrics: dict = field(default_factory=dict)

    @property
    def results(self) -> list[OptimizationResult]:
        return [item.result for item in self.items
                if item.ok and item.result is not None]

    @property
    def failures(self) -> list[BatchItem]:
        return [item for item in self.items if not item.ok]

    @property
    def nests_per_sec(self) -> float:
        if self.wall_time_s <= 0:
            return 0.0
        return len(self.items) / self.wall_time_s

    def to_dict(self) -> dict:
        return {
            "workers": self.workers,
            "wall_time_s": self.wall_time_s,
            "nests": len(self.items),
            "failures": len(self.failures),
            "nests_per_sec": self.nests_per_sec,
            "items": [item.to_dict() for item in self.items],
            "metrics": self.metrics,
        }

class AnalysisEngine:
    """Memoizing, metric-instrumented front end over the paper's analyses.

    Parameters
    ----------
    capacity:
        Bound of each in-process LRU (graphs, artifacts, tables).
    metrics:
        An existing :class:`Metrics` to record into (default: fresh).
    disk_cache:
        Persist/look up serialized tables under ``cache_dir``.
    cache_dir:
        On-disk cache location (default :func:`default_cache_dir`).
    ugs_cache:
        Memoize per-UGS tables under their canonical signature
        (:mod:`repro.engine.ugscache`) so structurally *different* nests
        that share sets skip the lattice counting.  On by default; the
        benchmarks disable it to measure the whole-nest-only fast path.
    """

    def __init__(self, capacity: int = 256, metrics: Metrics | None = None,
                 disk_cache: bool = False,
                 cache_dir: str | os.PathLike | None = None,
                 profiler: "_obs_profile.Profiler | None" = None,
                 shared_dir: str | os.PathLike | None = None,
                 ugs_cache: bool = True):
        self.metrics = metrics if metrics is not None else Metrics()
        self.profiler = (profiler if profiler is not None
                         else _obs_profile.get_profiler())
        self.disk_cache = disk_cache
        self.cache_dir = (pathlib.Path(cache_dir) if cache_dir is not None
                          else default_cache_dir())
        #: Cross-process mmap-backed table store (cluster workers share
        #: one; see repro.engine.shared).  ``None`` = not sharing.
        self.shared: "SharedTableStore | None" = None
        if shared_dir is not None:
            from repro.engine.shared import SharedTableStore

            self.shared = SharedTableStore(shared_dir)
        self._graphs = _LRU(capacity)
        self._artifacts = _LRU(capacity)
        self._tables = _LRU(capacity)
        self._profiles = _LRU(capacity)
        self._simd = _LRU(capacity)
        #: Sub-structural cache: distinct UGS signatures are far more
        #: numerous than distinct nests in the LRU, so it gets more slots.
        self.ugs_cache: UgsTableCache | None = None
        if ugs_cache:
            self.ugs_cache = UgsTableCache(
                capacity=max(16 * capacity, 1024), metrics=self.metrics,
                shared=self.shared)

    # -- memoized building blocks -------------------------------------------

    def dependence_graph(self, nest: LoopNest,
                         include_input: bool = False) -> DependenceGraph:
        """The nest's dependence graph, memoized by structural key."""
        key = (nest.structural_key(), include_input)
        cached = self._graphs.get(key)
        if cached is not None:
            self.metrics.count("cache.graph.hit")
            return cached
        self.metrics.count("cache.graph.miss")
        with self.metrics.timer("stage.dependence_graph"), \
                _span("engine.dependence_graph", nest=nest.name):
            graph = build_dependence_graph(nest, include_input=include_input)
        self._graphs.put(key, graph)
        return graph

    def analyze(self, nest: LoopNest,
                machine: MachineModel | None = None,
                line_size: int | None = None) -> NestArtifacts:
        """Dependence graph + safety bounds + locality scores + UGS
        partition for one nest, memoized by structural key."""
        if line_size is None:
            line_size = machine.cache_line_words if machine is not None else 4
        key = (nest.structural_key(), line_size)
        cached = self._artifacts.get(key)
        if cached is not None:
            self.metrics.count("cache.artifacts.hit")
            return cached
        self.metrics.count("cache.artifacts.miss")
        with _span("engine.analyze", nest=nest.name), \
                self.profiler.profile("stage.analyze"):
            graph = self.dependence_graph(nest, include_input=False)
            with self.metrics.timer("stage.safety"), _span("engine.safety"):
                safety = safe_unroll_bounds(nest, graph)
            with self.metrics.timer("stage.ugs_partition"), \
                    _span("ugs.partition"):
                ugs = tuple(partition_ugs(nest))
            with self.metrics.timer("stage.locality"), \
                    _span("engine.locality"):
                locality = tuple(loop_locality_scores(
                    nest, line_size=line_size, ugs=list(ugs)))
        artifacts = NestArtifacts(key=key[0], graph=graph, safety=safety,
                                  locality=locality, ugs=ugs,
                                  line_size=line_size)
        self._artifacts.put(key, artifacts)
        return artifacts

    def reuse_profile(self, nest: LoopNest,
                      machine: MachineModel | None = None,
                      line_size: int | None = None,
                      trip: int = 100) -> "NestReuseProfile":
        """The static reuse-distance profile of one nest, memoized by
        structural key (see :func:`repro.reuse.profile.reuse_profile`)."""
        from repro.reuse.profile import reuse_profile as build_profile

        if line_size is None:
            line_size = machine.cache_line_words if machine is not None else 4
        key = (nest.structural_key(), line_size, trip)
        cached = self._profiles.get(key)
        if cached is not None:
            self.metrics.count("cache.profile.hit")
            return cached
        self.metrics.count("cache.profile.miss")
        artifacts = self.analyze(nest, line_size=line_size)
        with self.metrics.timer("stage.reuse_profile"), \
                _span("engine.reuse_profile", nest=nest.name):
            profile = build_profile(nest, line_size=line_size, trip=trip,
                                    ugs=artifacts.ugs)
        self._profiles.put(key, profile)
        return profile

    def tables(self, nest: LoopNest, space: UnrollSpace, line_size: int,
               trip: int = 100,
               ugs: Sequence[UniformlyGeneratedSet] | None = None,
               ) -> UnrollTables:
        """The GTS/GSS/RRS/RL tables, memoized in memory and (optionally)
        on disk.  ``ugs`` optionally reuses a precomputed partition (the
        partition is a pure function of the nest, so the memo key is
        unaffected)."""
        key = (nest.structural_key(), space.dims, space.bounds, line_size,
               trip)
        cached = self._tables.get(key)
        if cached is not None:
            self.metrics.count("cache.tables.hit")
            self.metrics.count("cache.memory.hit")
            return _rebind_tables(cached, nest)
        self.metrics.count("cache.memory.miss")
        shared = self._load_shared_tables(key, nest)
        if shared is not None:
            self.metrics.count("cache.tables.hit")
            self._tables.put(key, shared)
            return shared
        loaded = self._load_disk_tables(key, nest)
        if loaded is not None:
            self.metrics.count("cache.tables.hit")
            self._tables.put(key, loaded)
            self._store_shared_tables(key, loaded)
            return loaded
        self.metrics.count("cache.tables.miss")
        with self.metrics.timer("stage.build_tables"), \
                _span("tables.build", nest=nest.name), \
                self.profiler.profile("stage.build_tables"):
            tables = build_tables(nest, space, line_size=line_size, trip=trip,
                                  ugs=list(ugs) if ugs is not None else None,
                                  ugs_cache=self.ugs_cache)
        self._tables.put(key, tables)
        self._store_shared_tables(key, tables)
        self._store_disk_tables(key, tables)
        return tables

    # -- the end-to-end decision --------------------------------------------

    def optimize(self, nest: LoopNest, machine: MachineModel,
                 bound: int = DEFAULT_BOUND, max_loops: int = 2,
                 include_cache: bool = True,
                 trip: int = 100,
                 cache_model: str = "binary",
                 vectorize: bool = False) -> OptimizationResult:
        """Memoized equivalent of :func:`repro.unroll.optimize.choose_unroll`
        (same decision, byte-identical unroll vector).

        Delegates to :func:`choose_unroll` with the memoized artifacts
        (dependence graph, safety bounds, locality scores, UGS partition)
        and this engine's cached table layer, so nothing is rebuilt on the
        warm path.

        ``cache_model="assoc"`` ranks candidates with the reuse-distance
        profile's set-associative miss estimate for this machine's cache
        geometry instead of the paper's binary hit/miss charge
        (docs/REUSE.md); the default ``"binary"`` keeps the decision
        byte-identical to the paper's algorithm.

        ``vectorize=True`` ranks candidates with the SLP lane cost model
        instead (docs/VECTORIZE.md); a no-op on machines without a
        vector unit, and the default ``False`` keeps every existing
        decision bit-identical.
        """
        if cache_model not in ("binary", "assoc"):
            raise ValueError(f"unknown cache model {cache_model!r} "
                             "(expected 'binary' or 'assoc')")
        with self.metrics.timer("stage.optimize"), \
                _span("engine.optimize", nest=nest.name,
                      machine=machine.name), \
                self.profiler.profile("stage.optimize"):
            line_size = machine.cache_line_words
            artifacts = self.analyze(nest, line_size=line_size)

            def tables_builder(target: LoopNest, space: UnrollSpace,
                               line: int, trip_: int) -> UnrollTables:
                return self.tables(target, space, line, trip_,
                                   ugs=artifacts.ugs)

            @contextmanager
            def stage(name: str):
                with self.metrics.timer(f"stage.{name}"), \
                        _span(f"unroll.{name}"):
                    yield

            miss_model = None
            if cache_model == "assoc":
                from repro.reuse.profile import AssocMissModel

                profile = self.reuse_profile(nest, machine, line_size, trip)
                miss_model = AssocMissModel.for_machine(profile, machine)
            result = choose_unroll(
                nest, machine, bound, max_loops, include_cache, trip,
                graph=artifacts.graph, safety=artifacts.safety,
                scores=artifacts.locality, tables_builder=tables_builder,
                stage=stage, miss_model=miss_model, vectorize=vectorize)
        self.metrics.count("engine.optimize")
        return result

    def simd_report(self, nest: LoopNest, machine: MachineModel,
                    unroll: tuple[int, ...], trip: int = 100):
        """Memoized :func:`repro.simd.vectorize_nest`: the pack set,
        schedule and lane cost estimate of ``nest`` jammed by ``unroll``
        on ``machine`` (docs/VECTORIZE.md)."""
        from repro.simd import vectorize_nest

        # The report embeds the nest's display name, so the key must too
        # (structural keys are deliberately name-blind).
        key = (nest.structural_key(), nest.name, machine.name, tuple(unroll))
        cached = self._simd.get(key)
        if cached is not None:
            self.metrics.count("cache.simd.hits")
            return cached
        self.metrics.count("cache.simd.misses")
        with self.metrics.timer("stage.simd"), \
                _span("engine.simd", nest=nest.name, machine=machine.name):
            report = vectorize_nest(nest, tuple(unroll), machine)
        self._simd.put(key, report)
        return report

    # -- corpus fan-out ------------------------------------------------------

    def optimize_many(self, nests: Sequence[object], machine: MachineModel,
                      workers: int | None = None,
                      bound: int = DEFAULT_BOUND, max_loops: int = 2,
                      include_cache: bool = True,
                      trip: int = 100) -> BatchReport:
        """Optimize a whole corpus.

        ``workers=None`` or ``1`` runs in-process (sharing this engine's
        caches); ``workers=N`` fans out over a process pool.  Entries that
        are not :class:`LoopNest` (or are :class:`BatchError` placeholders
        from upstream coercion) and nests whose analysis raises become
        failed items; the rest of the batch completes.

        Structurally identical nests are deduplicated *before* dispatch:
        one representative runs, its result fans back out to every
        duplicate index (``engine.dedup.hits`` counts the slots saved).
        """
        start = time.monotonic()
        params = dict(bound=bound, max_loops=max_loops,
                      include_cache=include_cache, trip=trip)
        with _span("engine.optimize_many", nests=len(nests),
                   workers=workers or 1):
            pairs, duplicates = self._dedup_pairs(enumerate(nests))
            if workers is not None and workers > 1:
                items = self._run_parallel(pairs, machine, workers, params)
            else:
                items = [self._run_one(i, nest, machine, params)
                         for i, nest in pairs]
            if duplicates:
                by_index = {item.index: item for item in items}
                for rep_index, waiters in duplicates.items():
                    rep = by_index[rep_index]
                    items.extend(_fan_item(rep, i, nest)
                                 for i, nest in waiters)
                items.sort(key=lambda item: item.index)
        wall = time.monotonic() - start
        self.metrics.count("batch.runs")
        self.metrics.count("batch.items", len(items))
        self.metrics.count("batch.failures",
                           sum(1 for item in items if not item.ok))
        self.metrics.observe("stage.batch", wall)
        return BatchReport(items=items, workers=workers or 1,
                           wall_time_s=wall,
                           metrics=self.metrics.snapshot())

    def _run_one(self, index: int, nest: object, machine: MachineModel,
                 params: dict) -> BatchItem:
        name = getattr(nest, "name", f"item{index}")
        if isinstance(nest, BatchError):
            return BatchItem(index=index, name=nest.name, ok=False,
                             error=nest.message)
        if not isinstance(nest, LoopNest):
            return BatchItem(index=index, name=str(name), ok=False,
                             error=f"not a loop nest: {type(nest).__name__}")
        t0 = time.monotonic()
        try:
            result = self.optimize(nest, machine, **params)
        except Exception as err:  # per-nest capture: the batch survives
            return BatchItem(index=index, name=nest.name, ok=False,
                             error=f"{type(err).__name__}: {err}",
                             duration_s=time.monotonic() - t0)
        return BatchItem(index=index, name=nest.name, ok=True, result=result,
                         duration_s=time.monotonic() - t0)

    def _dedup_pairs(self, pairs: Iterable[tuple[int, object]],
                     ) -> tuple[list[tuple[int, object]],
                                dict[int, list[tuple[int, LoopNest]]]]:
        """Split indexed entries into unique work and structural twins.

        Returns ``(unique, duplicates)``: the first-seen entry of every
        structural key (plus every non-nest entry) in order, and a map
        from each representative's index to its duplicates' ``(index,
        nest)`` pairs.  Counts the saved slots as ``engine.dedup.hits``.
        """
        seen: dict[object, int] = {}
        unique: list[tuple[int, object]] = []
        duplicates: dict[int, list[tuple[int, LoopNest]]] = {}
        hits = 0
        for index, nest in pairs:
            if isinstance(nest, LoopNest):
                key = nest.structural_key()
                rep = seen.get(key)
                if rep is not None:
                    duplicates.setdefault(rep, []).append((index, nest))
                    hits += 1
                    continue
                seen[key] = index
            unique.append((index, nest))
        if hits:
            self.metrics.count("engine.dedup.hits", hits)
        return unique, duplicates

    def _run_parallel(self, pairs: Sequence[tuple[int, object]],
                      machine: MachineModel,
                      workers: int, params: dict) -> list[BatchItem]:
        from concurrent import futures

        # When tracing, ship the current (trace_id, span_id) to every
        # worker so the spans it records come back rooted under this
        # batch's span -- parent/child nesting survives the pool hop.
        trace_ctx = (_obs_trace.current_context()
                     if _obs_trace.get_tracer().enabled else None)
        local: list[BatchItem] = []
        tasks: list[_Task] = []
        for index, nest in pairs:
            if isinstance(nest, LoopNest):
                tasks.append(_Task(index=index, nest=nest, machine=machine,
                                   params=params,
                                   disk_cache=self.disk_cache,
                                   cache_dir=str(self.cache_dir),
                                   trace=trace_ctx))
            else:
                local.append(self._run_one(index, nest, machine, params))
        items = list(local)
        try:
            with futures.ProcessPoolExecutor(max_workers=workers) as pool:
                pending = {pool.submit(_optimize_task, task): task
                           for task in tasks}
                for future in futures.as_completed(pending):
                    task = pending[future]
                    try:
                        item = future.result()
                    except Exception as err:  # broken pool / unpicklable
                        item = BatchItem(index=task.index,
                                         name=task.nest.name, ok=False,
                                         error=f"worker failed: "
                                               f"{type(err).__name__}: {err}")
                    if item.metrics is not None:
                        self.metrics.merge(item.metrics)
                        item.metrics = None
                    if item.spans is not None:
                        _obs_trace.get_tracer().ingest(item.spans)
                        item.spans = None
                    items.append(item)
        except (OSError, PermissionError, NotImplementedError):
            # No process pool available here: degrade to in-process.
            self.metrics.count("batch.pool_fallback")
            done = {item.index for item in items}
            for task in tasks:
                if task.index not in done:
                    items.append(self._run_one(task.index, task.nest,
                                               machine, params))
        items.sort(key=lambda item: item.index)
        return items

    # -- streaming corpus fan-out --------------------------------------------

    def optimize_stream(self, nests: Iterable[object],
                        machine: MachineModel,
                        workers: int | None = None,
                        bound: int = DEFAULT_BOUND, max_loops: int = 2,
                        include_cache: bool = True, trip: int = 100,
                        chunk_size: int = 32,
                        window: int = 4096) -> Iterator[BatchItem]:
        """Optimize an *iterable* corpus, yielding items as they complete.

        The streaming sibling of :meth:`optimize_many` for corpora too
        large to materialize: nothing holds the input list or the result
        list, so peak memory stays near-flat in the corpus size.

        * ``workers=None``/``1`` runs in-process, yielding in input
          order; ``workers=N`` fans chunks of ``chunk_size`` nests over a
          process pool (eagerly warmed via a pool initializer, so every
          worker's UGS cache is hot from its first chunk) with at most
          ``2 * workers`` chunks in flight, yielding in *completion*
          order -- consume :attr:`BatchItem.index` to reorder.
        * structural twins dedup against a sliding ``window`` of recent
          results (and against in-flight chunks) before dispatch, counted
          as ``engine.dedup.hits``.

        Every yielded item is a :class:`BatchItem`; failures are reported
        items exactly as in :meth:`optimize_many`.
        """
        params = dict(bound=bound, max_loops=max_loops,
                      include_cache=include_cache, trip=trip)
        self.metrics.count("stream.runs")
        if workers is not None and workers > 1:
            yield from self._stream_parallel(nests, machine, workers,
                                             params, chunk_size, window)
        else:
            yield from self._stream_serial(nests, machine, params, window)

    def _stream_serial(self, nests: Iterable[object], machine: MachineModel,
                       params: dict, window: int) -> Iterator[BatchItem]:
        recent = _LRU(window)
        for index, nest in enumerate(nests):
            key = (nest.structural_key()
                   if isinstance(nest, LoopNest) else None)
            if key is not None:
                rep = recent.get(key)
                if rep is not None:
                    self.metrics.count("engine.dedup.hits")
                    yield _fan_item(rep, index, nest)
                    continue
            item = self._run_one(index, nest, machine, params)
            self.metrics.count("stream.items")
            if key is not None:
                recent.put(key, item)
            yield item

    def _stream_parallel(self, nests: Iterable[object],
                         machine: MachineModel, workers: int, params: dict,
                         chunk_size: int,
                         window: int) -> Iterator[BatchItem]:
        from concurrent import futures

        trace_ctx = (_obs_trace.current_context()
                     if _obs_trace.get_tracer().enabled else None)
        try:
            pool = futures.ProcessPoolExecutor(
                max_workers=workers, initializer=_init_worker,
                initargs=(self.disk_cache, str(self.cache_dir)))
        except (OSError, PermissionError, NotImplementedError):
            self.metrics.count("batch.pool_fallback")
            yield from self._stream_serial(nests, machine, params, window)
            return

        recent = _LRU(window)
        #: key -> duplicates waiting on an in-flight representative.
        waiting: dict[object, list[tuple[int, LoopNest]]] = {}
        chunk: list[tuple[int, LoopNest, object]] = []
        pending: dict = {}  # future -> its chunk's (index, nest, key) list
        max_pending = 2 * workers
        source = iter(enumerate(nests))
        exhausted = False

        def submit() -> None:
            nonlocal chunk
            if not chunk:
                return
            entries = chunk
            chunk = []
            task = _Chunk(entries=tuple((i, nest) for i, nest, _ in entries),
                          machine=machine, params=params,
                          disk_cache=self.disk_cache,
                          cache_dir=str(self.cache_dir), trace=trace_ctx)
            pending[pool.submit(_optimize_chunk, task)] = entries
            self.metrics.count("stream.chunks")

        def resolve_local(index: int, nest: LoopNest,
                          key: object) -> Iterator[BatchItem]:
            """In-process completion of one entry plus its waiters (the
            no-process-pool degradation path)."""
            item = self._run_one(index, nest, machine, params)
            self.metrics.count("stream.items")
            recent.put(key, item)
            yield item
            dups = waiting.pop(key, ())
            if dups:
                self.metrics.count("engine.dedup.hits", len(dups))
            for dup_index, dup_nest in dups:
                yield _fan_item(item, dup_index, dup_nest)

        def drain(future) -> Iterator[BatchItem]:
            entries = pending.pop(future)
            try:
                out = future.result()
            except Exception as err:  # broken pool / unpicklable
                out = _ChunkResult(items=[
                    BatchItem(index=i, name=nest.name, ok=False,
                              error=f"worker failed: "
                                    f"{type(err).__name__}: {err}")
                    for i, nest, _ in entries])
            if out.metrics is not None:
                self.metrics.merge(out.metrics)
            if out.spans is not None:
                _obs_trace.get_tracer().ingest(out.spans)
            by_index = {item.index: item for item in out.items}
            for index, nest, key in entries:
                item = by_index.get(index)
                if item is None:  # defensive: worker dropped an entry
                    item = BatchItem(index=index, name=nest.name, ok=False,
                                     error="worker returned no result")
                self.metrics.count("stream.items")
                recent.put(key, item)
                yield item
                dups = waiting.pop(key, ())
                if dups:
                    self.metrics.count("engine.dedup.hits", len(dups))
                for dup_index, dup_nest in dups:
                    yield _fan_item(item, dup_index, dup_nest)

        try:
            while True:
                # Fill the pipeline up to the in-flight bound.
                while not exhausted and len(pending) < max_pending:
                    try:
                        index, nest = next(source)
                    except StopIteration:
                        exhausted = True
                        break
                    if not isinstance(nest, LoopNest):
                        yield self._run_one(index, nest, machine, params)
                        continue
                    key = nest.structural_key()
                    rep = recent.get(key)
                    if rep is not None:
                        self.metrics.count("engine.dedup.hits")
                        yield _fan_item(rep, index, nest)
                        continue
                    if key in waiting:
                        waiting[key].append((index, nest))
                        continue
                    waiting[key] = []
                    chunk.append((index, nest, key))
                    if len(chunk) >= chunk_size:
                        submit()
                if exhausted:
                    submit()  # flush the partial tail chunk
                if not pending:
                    break
                done, _ = futures.wait(
                    pending, return_when=futures.FIRST_COMPLETED)
                for future in done:
                    yield from drain(future)
        except (OSError, PermissionError, NotImplementedError):
            # No working process pool here (sandbox, no fork): degrade to
            # in-process for everything not yet completed.
            self.metrics.count("batch.pool_fallback")
            leftovers = [entry for entries in pending.values()
                         for entry in entries]
            for future in pending:
                future.cancel()
            pending.clear()
            leftovers.extend(chunk)
            chunk = []
            for index, nest, key in leftovers:
                yield from resolve_local(index, nest, key)
            if not exhausted:
                for index, nest in source:
                    if not isinstance(nest, LoopNest):
                        yield self._run_one(index, nest, machine, params)
                        continue
                    key = nest.structural_key()
                    rep = recent.get(key)
                    if rep is not None:
                        self.metrics.count("engine.dedup.hits")
                        yield _fan_item(rep, index, nest)
                        continue
                    yield from resolve_local(index, nest, key)
        finally:
            for future in pending:
                future.cancel()
            pool.shutdown(wait=False, cancel_futures=True)

    # -- cache management ----------------------------------------------------

    def cache_stats(self) -> dict:
        """Sizes and hit counters of every cache layer."""
        stats = {
            "memory": {
                "graphs": len(self._graphs),
                "artifacts": len(self._artifacts),
                "tables": len(self._tables),
                "capacity": self._tables.capacity,
                "ugs": (len(self.ugs_cache)
                        if self.ugs_cache is not None else 0),
            },
            "counters": {
                name: value for name, value in
                sorted(self.metrics.counters.items())
                if name.startswith("cache.")},
            # Per-tier ratios: "tables" is the any-tier aggregate;
            # memory/shared/disk are the lookup tiers in probe order, and
            # "ugs" is the sub-structural per-set cache.  All flow into
            # the Prometheus exposition as repro_cache_hit_rate_<family>.
            "hit_rates": {
                family: self.metrics.hit_rate(f"cache.{family}")
                for family in ("graph", "artifacts", "tables", "memory",
                               "shared", "disk", "ugs")},
            "disk_enabled": self.disk_cache,
        }
        if self.disk_cache:
            stats["disk"] = disk_cache_stats(self.cache_dir)
        if self.shared is not None:
            stats["shared"] = self.shared.stats()
        return stats

    def clear(self) -> None:
        """Drop every in-memory memo (the disk cache is left alone)."""
        self._graphs.clear()
        self._artifacts.clear()
        self._tables.clear()
        if self.ugs_cache is not None:
            self.ugs_cache.clear()

    # -- disk layer ----------------------------------------------------------

    def _disk_path(self, key: tuple) -> pathlib.Path:
        return self.cache_dir / f"tables-{self._table_digest(key)}.json"

    @staticmethod
    def _table_digest(key: tuple) -> str:
        """The stable digest naming a table entry in the disk cache and
        the shared segment (one derivation, one versioning knob)."""
        digest = hashlib.sha256(
            f"v{DISK_FORMAT_VERSION}:{key!r}".encode("utf-8")).hexdigest()
        return digest[:32]

    def _load_shared_tables(self, key: tuple,
                            nest: LoopNest) -> UnrollTables | None:
        if self.shared is None:
            return None
        with self.metrics.timer("stage.shared_load"):
            tables = self.shared.get(self._table_digest(key))
        if tables is None:
            self.metrics.count("cache.shared.miss")
            return None
        self.metrics.count("cache.shared.hit")
        return _rebind_tables(tables, nest)

    def _store_shared_tables(self, key: tuple,
                             tables: UnrollTables) -> None:
        if self.shared is None:
            return
        with self.metrics.timer("stage.shared_store"):
            if self.shared.put(self._table_digest(key), tables):
                self.metrics.count("cache.shared.store")

    def _load_disk_tables(self, key: tuple,
                          nest: LoopNest) -> UnrollTables | None:
        if not self.disk_cache:
            return None
        path = self._disk_path(key)
        try:
            text = path.read_text()
        except OSError:
            self.metrics.count("cache.disk.miss")
            return None
        try:
            with self.metrics.timer("stage.disk_load"):
                tables = tables_from_json(text)
        except Exception:
            # Corrupt or truncated entry: treat it as evicted and
            # recompute rather than fail the request.  The slot is NOT
            # unlinked here -- under concurrent multi-process use another
            # engine may have just atomically replaced it with a fresh
            # valid entry, and unlinking would delete that good work.
            # The recompute path's write-to-temp + os.replace store
            # overwrites the corrupt bytes instead, which is safe to
            # race: last writer wins with a complete entry either way.
            self.metrics.count("cache.disk.error")
            self.metrics.count("cache.disk.evict")
            return None
        self.metrics.count("cache.disk.hit")
        return _rebind_tables(tables, nest)

    def _store_disk_tables(self, key: tuple, tables: UnrollTables) -> None:
        if not self.disk_cache:
            return
        path = self._disk_path(key)
        # Write-to-temp + atomic rename: a concurrent reader (another thread
        # or process) never observes a partially written entry.
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with self.metrics.timer("stage.disk_store"):
                tmp.write_text(tables_to_json(tables))
                os.replace(tmp, path)
            self.metrics.count("cache.disk.store")
        except OSError:
            self.metrics.count("cache.disk.error")
            try:
                tmp.unlink()
            except OSError:
                pass

def _fan_item(rep: BatchItem, index: int, nest: LoopNest) -> BatchItem:
    """A duplicate index's item, cloned from its structural twin's.

    The result is re-reported under the duplicate's own nest (twins may
    differ in name and loop variables); every numeric field is shared.
    Failures fan out too: a twin of a failing nest fails identically.
    """
    result = rep.result
    if result is not None and result.nest is not nest:
        result = replace(result, nest=nest)
    return BatchItem(index=index, name=nest.name, ok=rep.ok, result=result,
                     error=rep.error, duration_s=0.0)

def _rebind_tables(tables: UnrollTables, nest: LoopNest) -> UnrollTables:
    """Serve cached tables under the caller's nest object.

    The cached entry may belong to a structurally identical twin (renamed
    loop variables, different nest name); every numeric table is shared,
    only the ``nest`` the result reports is swapped.
    """
    if tables.nest is nest:
        return tables
    rebound = UnrollTables(nest, tables.space, tables.line_size, tables.trip,
                           tables.per_ugs)
    rebound._points = tables._points  # share the point memo too
    return rebound

# -- worker-process plumbing -------------------------------------------------

@dataclass(frozen=True)
class _Task:
    """Picklable work unit shipped to pool workers."""

    index: int
    nest: LoopNest
    machine: MachineModel
    params: dict
    disk_cache: bool
    cache_dir: str
    trace: tuple[str, str] | None = None  # parent (trace_id, span_id)

@dataclass(frozen=True)
class _Chunk:
    """Picklable streaming work unit: a slice of the corpus shipped to a
    pool worker in one hop (amortizes the per-task IPC of ``_Task``)."""

    entries: tuple[tuple[int, LoopNest], ...]
    machine: MachineModel
    params: dict
    disk_cache: bool = False
    cache_dir: str = ""
    trace: tuple[str, str] | None = None

@dataclass
class _ChunkResult:
    """One chunk's items plus a single merged metrics/spans envelope."""

    items: list[BatchItem]
    metrics: dict | None = None
    spans: list | None = None

_WORKER_ENGINE: AnalysisEngine | None = None

def _init_worker(disk_cache: bool, cache_dir: str) -> None:
    """Pool initializer: build the per-process engine eagerly so every
    worker's caches (tables LRU, UGS cache) exist -- and stay warm --
    from its very first chunk."""
    global _WORKER_ENGINE
    if _WORKER_ENGINE is None:
        _WORKER_ENGINE = AnalysisEngine(disk_cache=disk_cache,
                                        cache_dir=cache_dir)

def _worker_engine(disk_cache: bool, cache_dir: str) -> AnalysisEngine:
    """The per-process engine with a fresh Metrics for this task, so the
    snapshot shipped back covers exactly this task's work."""
    global _WORKER_ENGINE
    if _WORKER_ENGINE is None:
        _WORKER_ENGINE = AnalysisEngine(disk_cache=disk_cache,
                                        cache_dir=cache_dir)
    engine = _WORKER_ENGINE
    engine.metrics = Metrics()
    if engine.ugs_cache is not None:
        engine.ugs_cache.metrics = engine.metrics
    return engine

def _optimize_chunk(chunk: _Chunk) -> _ChunkResult:
    """Run one streamed chunk in a worker; per-nest errors degrade to
    failed items, exactly as in :meth:`AnalysisEngine._run_one`."""
    engine = _worker_engine(chunk.disk_cache, chunk.cache_dir)
    worker_tracer = None
    previous_tracer = None
    if chunk.trace is not None:
        worker_tracer = _obs_trace.Tracer(enabled=True)
        previous_tracer = _obs_trace.set_tracer(worker_tracer)
    items: list[BatchItem] = []
    try:
        with _obs_trace.activate(chunk.trace):
            for index, nest in chunk.entries:
                items.append(engine._run_one(index, nest, chunk.machine,
                                             chunk.params))
    finally:
        if previous_tracer is not None:
            _obs_trace.set_tracer(previous_tracer)
    spans = ([span_obj.to_dict() for span_obj in worker_tracer.spans()]
             if worker_tracer is not None else None)
    return _ChunkResult(items=items, metrics=engine.metrics.snapshot(),
                        spans=spans)

def _optimize_task(task: _Task) -> BatchItem:
    """Run one task in a worker, reusing a per-process engine so repeated
    structures stay warm within the worker; returns a picklable item
    carrying the task's metrics snapshot for the parent to merge."""
    engine = _worker_engine(task.disk_cache, task.cache_dir)
    # Trace propagation: when the parent traced the batch, record this
    # task's spans into a fresh worker tracer rooted at the parent's
    # context and ship them back serialized on the item.
    worker_tracer = None
    previous_tracer = None
    if task.trace is not None:
        worker_tracer = _obs_trace.Tracer(enabled=True)
        previous_tracer = _obs_trace.set_tracer(worker_tracer)
    t0 = time.monotonic()
    try:
        with _obs_trace.activate(task.trace):
            result = engine.optimize(task.nest, task.machine, **task.params)
        item = BatchItem(index=task.index, name=task.nest.name, ok=True,
                         result=result, duration_s=time.monotonic() - t0)
    except Exception as err:
        item = BatchItem(index=task.index, name=task.nest.name, ok=False,
                         error=f"{type(err).__name__}: {err}",
                         duration_s=time.monotonic() - t0)
    finally:
        if previous_tracer is not None:
            _obs_trace.set_tracer(previous_tracer)
    if worker_tracer is not None:
        item.spans = [span_obj.to_dict()
                      for span_obj in worker_tracer.spans()]
    item.metrics = engine.metrics.snapshot()
    return item

# -- module-level disk-cache utilities ---------------------------------------

def disk_cache_stats(cache_dir: str | os.PathLike | None = None) -> dict:
    """Entry count and byte total of the on-disk table cache."""
    directory = (pathlib.Path(cache_dir) if cache_dir is not None
                 else default_cache_dir())
    entries = 0
    total = 0
    if directory.is_dir():
        for path in directory.glob("tables-*.json"):
            try:
                total += path.stat().st_size
            except OSError:
                continue
            entries += 1
    return {"dir": str(directory), "entries": entries, "bytes": total}

def clear_disk_cache(cache_dir: str | os.PathLike | None = None) -> int:
    """Delete every cached table file; returns how many were removed."""
    directory = (pathlib.Path(cache_dir) if cache_dir is not None
                 else default_cache_dir())
    removed = 0
    if directory.is_dir():
        for path in directory.glob("tables-*.json"):
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
    return removed
