"""The batch analysis engine: memoized per-nest artifacts + corpus fan-out.

The paper's efficiency claim is that the precomputed GTS/GSS/RRS/RL tables
answer balance and register-pressure queries for *every* unroll vector
without re-unrolling.  :class:`AnalysisEngine` extends that claim across
nests and across runs:

* every expensive per-nest artifact (dependence graph, locality scores,
  safety bounds, :class:`~repro.unroll.tables.UnrollTables`) is memoized
  behind :meth:`repro.ir.nodes.LoopNest.structural_key` -- structurally
  identical nests (including loop-variable renamings) share one analysis;
* every memo is a bounded :class:`~repro.engine.memo.Memo` counting
  ``cache.<family>.*``; whole-nest and per-UGS tables can additionally
  persist to the on-disk JSON tier of :mod:`repro.engine.disk` (default
  ``~/.cache/repro/``, override with the ``REPRO_CACHE_DIR`` environment
  variable) reusing :mod:`repro.unroll.serialize`;
* :meth:`AnalysisEngine.optimize_stream` runs a corpus in-process with
  structural dedup and per-nest error capture, so one malformed nest
  degrades to a reported failure instead of killing the batch;
  :meth:`AnalysisEngine.optimize_many` collects that stream;
* every stage is instrumented through :mod:`repro.engine.metrics`.

``engine.optimize(nest, machine)`` is guaranteed to return the same
decision as :func:`repro.unroll.optimize.choose_unroll` -- the test suite
and ``benchmarks/bench_engine_throughput.py`` enforce vector-level parity.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover -- type names only
    from repro.reuse.profile import NestReuseProfile

from repro.dependence.graph import DependenceGraph, build_dependence_graph
from repro.engine.disk import (
    DiskTier,
    clear_disk_cache,
    default_cache_dir,
    disk_cache_stats,
)
from repro.engine.memo import DiskBacking, Memo
from repro.engine.metrics import Metrics
from repro.engine.ugscache import UgsTableCache
from repro.ir.nodes import LoopNest, nest_identity
from repro.obs import profile as _obs_profile
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
DISK_FORMAT_VERSION = 3

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
    """Per-nest envelope of :meth:`AnalysisEngine.optimize_stream`."""

    index: int
    name: str
    ok: bool
    result: OptimizationResult | None = None
    error: str | None = None
    duration_s: float = 0.0

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
        Bound of each memo (graphs, artifacts, tables, profiles, SIMD).
    metrics:
        An existing :class:`Metrics` to record into (default: fresh).
    disk_cache:
        Persist/look up serialized whole-nest and per-UGS tables under
        ``cache_dir`` (:mod:`repro.engine.disk`).
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
                 ugs_cache: bool = True):
        self.metrics = metrics if metrics is not None else Metrics()
        self.profiler = (profiler if profiler is not None
                         else _obs_profile.get_profiler())
        self.cache_dir = (pathlib.Path(cache_dir) if cache_dir is not None
                          else default_cache_dir())
        #: The cross-process tier (``None`` without ``disk_cache``).
        self.disk = DiskTier(self.cache_dir) if disk_cache else None
        tables_disk = None
        if self.disk is not None:
            tables_disk = DiskBacking(
                self.disk, _tables_file, tables_to_json,
                lambda text, nest: tables_from_json(text))
        self._graphs = Memo("graph", capacity, self.metrics)
        self._artifacts = Memo("artifacts", capacity, self.metrics)
        self._tables = Memo("tables", capacity, self.metrics, tables_disk)
        self._profiles = Memo("profile", capacity, self.metrics)
        self._simd = Memo("simd", capacity, self.metrics)
        #: Sub-structural cache: distinct UGS signatures are far more
        #: numerous than distinct nests in the LRU, so it gets more slots.
        self.ugs_cache: UgsTableCache | None = None
        if ugs_cache:
            self.ugs_cache = UgsTableCache(
                capacity=max(16 * capacity, 1024), metrics=self.metrics,
                disk=self.disk)

    # -- memoized building blocks -------------------------------------------

    def dependence_graph(self, nest: LoopNest,
                         include_input: bool = False) -> DependenceGraph:
        """The nest's dependence graph, memoized by structural key."""
        def build() -> DependenceGraph:
            with self.metrics.timer("stage.dependence_graph"), \
                    _span("engine.dependence_graph", nest=nest.name):
                return build_dependence_graph(nest,
                                              include_input=include_input)

        return self._graphs.get_or_build(
            (nest.structural_key(), include_input), build)

    def analyze(self, nest: LoopNest,
                machine: MachineModel | None = None,
                line_size: int | None = None) -> NestArtifacts:
        """Dependence graph + safety bounds + locality scores + UGS
        partition for one nest, memoized by structural key."""
        if line_size is None:
            line_size = machine.cache_line_words if machine is not None else 4
        key = nest.structural_key()

        def build() -> NestArtifacts:
            with _span("engine.analyze", nest=nest.name), \
                    self.profiler.profile("stage.analyze"):
                graph = self.dependence_graph(nest, include_input=False)
                with self.metrics.timer("stage.safety"), \
                        _span("engine.safety"):
                    safety = safe_unroll_bounds(nest, graph)
                with self.metrics.timer("stage.ugs_partition"), \
                        _span("ugs.partition"):
                    ugs = tuple(partition_ugs(nest))
                with self.metrics.timer("stage.locality"), \
                        _span("engine.locality"):
                    locality = tuple(loop_locality_scores(
                        nest, line_size=line_size, ugs=list(ugs)))
            return NestArtifacts(key=key, graph=graph, safety=safety,
                                 locality=locality, ugs=ugs,
                                 line_size=line_size)

        return self._artifacts.get_or_build((key, line_size), build)

    def reuse_profile(self, nest: LoopNest,
                      machine: MachineModel | None = None,
                      line_size: int | None = None,
                      trip: int = 100) -> "NestReuseProfile":
        """The static reuse-distance profile of one nest, memoized by
        structural key (see :func:`repro.reuse.profile.reuse_profile`)."""
        from repro.reuse.profile import reuse_profile as build_profile

        if line_size is None:
            line_size = machine.cache_line_words if machine is not None else 4

        def build() -> "NestReuseProfile":
            artifacts = self.analyze(nest, line_size=line_size)
            with self.metrics.timer("stage.reuse_profile"), \
                    _span("engine.reuse_profile", nest=nest.name):
                return build_profile(nest, line_size=line_size, trip=trip,
                                     ugs=artifacts.ugs)

        return self._profiles.get_or_build(
            (nest.structural_key(), line_size, trip), build)

    def tables(self, nest: LoopNest, space: UnrollSpace, line_size: int,
               trip: int = 100,
               ugs: Sequence[UniformlyGeneratedSet] | None = None,
               ) -> UnrollTables:
        """The GTS/GSS/RRS/RL tables, memoized in memory and (optionally)
        on disk.  ``ugs`` optionally reuses a precomputed partition (the
        partition is a pure function of the nest, so the memo key is
        unaffected)."""
        def build() -> UnrollTables:
            with self.metrics.timer("stage.build_tables"), \
                    _span("tables.build", nest=nest.name), \
                    self.profiler.profile("stage.build_tables"):
                return build_tables(
                    nest, space, line_size=line_size, trip=trip,
                    ugs=list(ugs) if ugs is not None else None,
                    ugs_cache=self.ugs_cache)

        key = (nest.structural_key(), space.dims, space.bounds, line_size,
               trip)
        return self._tables.get_or_build(key, build).rebind(nest)

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

        def build():
            with self.metrics.timer("stage.simd"), \
                    _span("engine.simd", nest=nest.name, machine=machine.name):
                return vectorize_nest(nest, tuple(unroll), machine)

        # The report embeds the nest's name and loop variables, so the key
        # is the nest's identity (structural keys ignore both).
        return self._simd.get_or_build(
            (nest_identity(nest), machine.name, tuple(unroll)), build)

    # -- corpus fan-out ------------------------------------------------------

    def optimize_many(self, nests: Sequence[object], machine: MachineModel,
                      bound: int = DEFAULT_BOUND, max_loops: int = 2,
                      include_cache: bool = True,
                      trip: int = 100) -> BatchReport:
        """Optimize a whole corpus: :meth:`optimize_stream`, collected
        into a report in input order.

        Entries that are not :class:`LoopNest` (or are :class:`BatchError`
        placeholders from upstream coercion) and nests whose analysis
        raises become failed items; the rest of the batch completes.

        The dedup window spans the whole batch, so every structure runs
        once and its result fans back out to each structural twin
        (``engine.dedup.hits`` counts the slots saved).
        """
        start = time.monotonic()
        with _span("engine.optimize_many", nests=len(nests)):
            items = list(self.optimize_stream(
                nests, machine, bound=bound, max_loops=max_loops,
                include_cache=include_cache, trip=trip,
                window=max(1, len(nests))))
        wall = time.monotonic() - start
        self.metrics.count("batch.runs")
        self.metrics.count("batch.items", len(items))
        self.metrics.count("batch.failures",
                           sum(1 for item in items if not item.ok))
        self.metrics.observe("stage.batch", wall)
        return BatchReport(items=items, wall_time_s=wall,
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

    # -- streaming corpus fan-out --------------------------------------------

    def optimize_stream(self, nests: Iterable[object],
                        machine: MachineModel,
                        bound: int = DEFAULT_BOUND, max_loops: int = 2,
                        include_cache: bool = True, trip: int = 100,
                        window: int = 4096) -> Iterator[BatchItem]:
        """Optimize an *iterable* corpus in-process, yielding items in
        input order as they complete.

        The one corpus fan-out path (:meth:`optimize_many` collects it).
        Nothing holds the input list or the result list, so peak memory
        stays near-flat in the corpus size.  Structural twins dedup
        against a sliding ``window`` of recent results, counted as
        ``engine.dedup.hits``.  More than one core is the cluster's job
        (``repro serve --workers N``, docs/CLUSTER.md).

        Every yielded item is a :class:`BatchItem`; entries that are not
        :class:`LoopNest` and nests whose analysis raises become failed
        items, and the rest of the stream completes.
        """
        params = dict(bound=bound, max_loops=max_loops,
                      include_cache=include_cache, trip=trip)
        self.metrics.count("stream.runs")
        recent = Memo("dedup", window)
        for index, nest in enumerate(nests):
            key = (nest.structural_key()
                   if isinstance(nest, LoopNest) else None)
            rep = recent.get(key) if key is not None else None
            if rep is not None:
                self.metrics.count("engine.dedup.hits")
                yield _fan_item(rep, index, nest)
                continue
            item = self._run_one(index, nest, machine, params)
            self.metrics.count("stream.items")
            if key is not None:
                recent.put(key, item)
            yield item

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
            # One any-tier ratio per memo family; all flow into the
            # Prometheus exposition as repro_cache_hit_rate_<family>.
            "hit_rates": {
                family: self.metrics.hit_rate(f"cache.{family}")
                for family in ("graph", "artifacts", "tables", "profile",
                               "simd", "ugs")},
            "disk_enabled": self.disk is not None,
        }
        if self.disk is not None:
            stats["disk"] = disk_cache_stats(self.cache_dir)
        return stats

    def clear(self) -> None:
        """Drop every in-memory memo (the disk cache is left alone)."""
        for memo in (self._graphs, self._artifacts, self._tables,
                     self._profiles, self._simd, self.ugs_cache):
            if memo is not None:
                memo.clear()

def _tables_file(key: tuple) -> str:
    """The stable file name of a whole-nest entry (the key derivation is
    versioned by :data:`DISK_FORMAT_VERSION`)."""
    digest = hashlib.sha256(
        f"v{DISK_FORMAT_VERSION}:{key!r}".encode("utf-8")).hexdigest()
    return f"tables-{digest[:32]}.json"

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
