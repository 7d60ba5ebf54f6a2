"""Request coalescing, a result LRU and backpressure in front of the engine.

The serving pipeline between the HTTP layer and the
:class:`~repro.engine.AnalysisEngine`:

* **bounded admission** -- :meth:`MicroBatcher.submit` admits one job per
  *distinct* coalescing key; when ``queue_limit`` jobs are already
  pending it raises :class:`Overloaded` and the server answers 429 with
  a ``Retry-After`` estimate instead of building an unbounded backlog;
* **coalescing** -- a request whose ``(kind, nest_identity, machine,
  params, unroll)`` key matches a pending job just attaches another
  future to that job, so N identical concurrent requests cost one engine
  computation; completed payloads additionally land in a bounded result
  :class:`~repro.engine.memo.Memo`, so an identical request that arrives
  *after* its twin finished is answered without touching the engine at
  all.  :func:`~repro.ir.nodes.nest_identity` adds the nest's name, loop
  variables and description to its structural key, because the payload
  echoes them: a renamed twin reaches the engine, whose memos answer it;
* **dispatch on admission** -- an admitted job goes straight to the
  thread pool.  There is no batch window: every job runs separately on
  the executor anyway, and the served caller (a compiler asking for one
  nest's unroll vector) keeps one request in flight, so a window only
  ever held one job and added its full wait to every cold request;
* **drain** -- :meth:`stop` rejects new work, waits for everything
  already accepted, and only then shuts the executor down (the
  graceful-shutdown contract: every accepted request gets a response).

Everything is recorded into the engine's :class:`~repro.engine.metrics.
Metrics` under ``serve.*`` names, so ``GET /metrics`` exposes one merged
view of the service and the engine beneath it; ``serve.queue_wait``
times each job from admission to the start of its engine call.
"""

from __future__ import annotations

import asyncio
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro import obs
from repro.engine import AnalysisEngine
from repro.engine.memo import Memo
from repro.ir.nodes import LoopNest
from repro.machine.model import MachineModel
from repro.serve import protocol
from repro.unroll.transform import unroll_and_jam

__all__ = ["BatchConfig", "MicroBatcher", "Overloaded"]

@dataclass
class BatchConfig:
    """Knobs of the batcher (see docs/SERVING.md for guidance)."""

    queue_limit: int = 256      # distinct pending jobs admitted before 429
    threads: int = 4            # executor width
    result_cache: int = 512     # completed payloads kept for exact repeats

class Overloaded(Exception):
    """Admission is full; retry after ``retry_after_s``."""

    def __init__(self, retry_after_s: int):
        super().__init__(f"queue full; retry after {retry_after_s}s")
        self.retry_after_s = retry_after_s

@dataclass
class _Job:
    """One coalesced unit of engine work and everyone waiting on it."""

    kind: str                      # 'analyze' | 'optimize' | 'transform'
    key: tuple
    nest: LoopNest
    machine: MachineModel
    params: dict
    unroll: tuple[int, ...] | None
    futures: list[asyncio.Future] = field(default_factory=list)
    #: The submitting request's (trace_id, span_id): the engine work this
    #: job triggers is recorded as a child of that request's span, even
    #: though it executes on an executor thread.  Coalesced followers
    #: share the first submitter's trace.
    trace: tuple[str, str] | None = None
    #: Monotonic admission time; ``serve.queue_wait`` runs from here to
    #: the start of :meth:`MicroBatcher._run_job`.
    admitted: float = 0.0
    #: Set by the executor thread once the engine call starts.
    started: bool = False
    #: The executor's result, wrapped for the event loop.
    done: asyncio.Future | None = None

class MicroBatcher:
    """The admission stage; create and :meth:`start` it inside a running
    loop."""

    def __init__(self, engine: AnalysisEngine,
                 config: BatchConfig | None = None):
        self.engine = engine
        self.config = config if config is not None else BatchConfig()
        self.metrics = engine.metrics
        self._loop: asyncio.AbstractEventLoop | None = None
        self._pending: dict[tuple, _Job] = {}
        self._cache = Memo("serve_result", self.config.result_cache)
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, self.config.threads),
            thread_name_prefix="repro-serve")
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        self._loop = asyncio.get_running_loop()

    async def stop(self) -> None:
        """Drain: stop admitting, finish everything accepted, tear down."""
        self._closed = True
        await asyncio.gather(*(job.done for job in self._pending.values()),
                             return_exceptions=True)
        self._executor.shutdown(wait=True)

    @property
    def queue_depth(self) -> int:
        """Admitted jobs whose engine call has not started yet."""
        return sum(1 for job in self._pending.values() if not job.started)

    @property
    def in_flight(self) -> int:
        return len(self._pending)

    # -- admission -----------------------------------------------------------

    def submit(self, kind: str, key: tuple, nest: LoopNest,
               machine: MachineModel, params: dict,
               unroll: tuple[int, ...] | None = None) -> asyncio.Future:
        """Admit one request; returns a future resolving to the JSON-ready
        payload.  Raises :class:`Overloaded` when ``queue_limit`` jobs are
        pending and :class:`RuntimeError` once the service is draining."""
        assert self._loop is not None, "MicroBatcher.submit before start()"
        if self._closed:
            raise RuntimeError("service is shutting down")
        self.metrics.count("serve.requests")
        future = self._loop.create_future()
        cached = self._cache.get(key)
        if cached is not None:
            self.metrics.count("serve.cache.hit")
            future.set_result(cached)
            return future
        job = self._pending.get(key)
        if job is not None:
            self.metrics.count("serve.coalesced")
            job.futures.append(future)
            return future
        if len(self._pending) >= self.config.queue_limit:
            self.metrics.count("serve.rejected")
            raise Overloaded(self._retry_after())
        job = _Job(kind=kind, key=key, nest=nest, machine=machine,
                   params=params, unroll=unroll, futures=[future],
                   trace=obs.current_context(), admitted=time.monotonic())
        self._pending[key] = job
        job.done = asyncio.wrap_future(
            self._executor.submit(self._run_job, job), loop=self._loop)
        job.done.add_done_callback(lambda done: self._resolve(job, done))
        return future

    def _retry_after(self) -> int:
        # The pending jobs clear in about pending x mean optimize time
        # spread over the executor threads; round up and never advise
        # less than a second (also before any optimize was measured).
        mean_s = self.metrics.mean_s("stage.optimize")
        seconds = len(self._pending) * mean_s / max(1, self.config.threads)
        return max(1, math.ceil(seconds))

    def _resolve(self, job: _Job, done: asyncio.Future) -> None:
        # Runs on the loop.  No awaits between the cache fill, the
        # pending removal, and the future resolution: a submit() for the
        # same key lands either on the pending job or on the cache.
        payload, error = done.result()
        if error is None:
            self._cache.put(job.key, payload)
        self._pending.pop(job.key, None)
        for future in job.futures:
            if future.done():  # per-request timeout already fired
                continue
            if error is None:
                future.set_result(payload)
            else:
                future.set_exception(error)

    # -- the engine calls (executor threads) ---------------------------------

    def _run_job(self, job: _Job) -> tuple:
        job.started = True
        queue_wait = time.monotonic() - job.admitted
        self.metrics.observe("serve.queue_wait", queue_wait)
        # Executor threads do not inherit the event loop's contextvars;
        # re-activate the submitting request's trace context so engine
        # spans nest under the serve.request span that caused them.
        with obs.activate(job.trace), \
                obs.span("serve.execute", kind=job.kind, nest=job.nest.name,
                         **{"serve.queue_wait": queue_wait}), \
                self.engine.profiler.profile("serve.execute"):
            try:
                if job.kind == "analyze":
                    params = dict(job.params)
                    want_profile = params.pop("profile", False)
                    artifacts = self.engine.analyze(job.nest, job.machine)
                    profile = None
                    if want_profile:
                        profile = self.engine.reuse_profile(
                            job.nest, job.machine,
                            trip=params.get("trip", 100))
                    return protocol.analyze_payload(job.nest, job.machine,
                                                    artifacts, profile), None
                if job.kind == "optimize":
                    params = dict(job.params)
                    want_simd = params.pop("simd", False)
                    result = self.engine.optimize(job.nest, job.machine,
                                                  vectorize=want_simd,
                                                  **params)
                    simd = None
                    if want_simd:
                        simd = self.engine.simd_report(
                            job.nest, job.machine, result.unroll,
                            trip=params.get("trip", 100))
                    return protocol.optimize_payload(job.nest, job.machine,
                                                     result, simd), None
                unroll = job.unroll
                if unroll is None:
                    result = self.engine.optimize(job.nest, job.machine,
                                                  **job.params)
                    unroll = result.unroll
                unrolled = unroll_and_jam(job.nest, unroll)
                return protocol.transform_payload(job.nest, job.machine,
                                                  unrolled), None
            except Exception as err:
                return None, err
