"""Dynamic micro-batching with request coalescing and backpressure.

The serving pipeline between the HTTP layer and the
:class:`~repro.engine.AnalysisEngine`:

* **bounded queue** -- :meth:`MicroBatcher.submit` enqueues one job per
  *distinct* coalescing key; when the queue is full it raises
  :class:`Overloaded` and the server answers 429 with a ``Retry-After``
  estimate instead of building an unbounded backlog;
* **coalescing** -- a request whose ``(kind, structural_key, machine,
  params)`` key matches a queued or in-flight job just attaches another
  future to that job, so N identical concurrent requests cost one engine
  computation; completed payloads additionally land in a bounded result
  LRU, so an identical request that arrives *after* its twin finished is
  answered without touching the engine at all;
* **size-or-deadline flush** -- the dispatcher collects jobs until
  ``max_batch`` are waiting or ``deadline_s`` has elapsed since the first,
  then runs every job of the batch on the thread pool;
* **drain** -- :meth:`stop` rejects new work, flushes everything already
  accepted, and only then tears the dispatcher down (the graceful-shutdown
  contract: every accepted request gets a response).

Everything is recorded into the engine's :class:`~repro.engine.metrics.
Metrics` under ``serve.*`` counters, so ``GET /metrics`` exposes one
merged view of the service and the engine beneath it.
"""

from __future__ import annotations

import asyncio
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro import obs
from repro.engine import AnalysisEngine, _LRU
from repro.ir.nodes import LoopNest
from repro.machine.model import MachineModel
from repro.serve import protocol
from repro.unroll.transform import unroll_and_jam

__all__ = ["BatchConfig", "MicroBatcher", "Overloaded"]

@dataclass
class BatchConfig:
    """Knobs of the dispatcher (see docs/SERVING.md for guidance)."""

    max_batch: int = 16         # flush when this many distinct jobs wait
    deadline_s: float = 0.010   # ...or this long after the first arrival
    queue_limit: int = 256      # distinct jobs admitted before 429
    threads: int = 4            # executor width
    result_cache: int = 512     # completed payloads kept for exact repeats

class Overloaded(Exception):
    """The admission queue is full; retry after ``retry_after_s``."""

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

class MicroBatcher:
    """The dispatcher; create and :meth:`start` it inside a running loop."""

    def __init__(self, engine: AnalysisEngine,
                 config: BatchConfig | None = None):
        self.engine = engine
        self.config = config if config is not None else BatchConfig()
        self.metrics = engine.metrics
        self._loop: asyncio.AbstractEventLoop | None = None
        self._queue: asyncio.Queue[_Job] | None = None
        self._pending: dict[tuple, _Job] = {}
        self._cache = _LRU(self.config.result_cache)
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, self.config.threads),
            thread_name_prefix="repro-serve")
        self._task: asyncio.Task | None = None
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue(maxsize=self.config.queue_limit)
        self._task = self._loop.create_task(self._dispatch(),
                                            name="repro-serve-dispatcher")

    async def stop(self) -> None:
        """Drain: stop admitting, flush everything accepted, tear down."""
        self._closed = True
        while self._pending or (self._queue and not self._queue.empty()):
            await asyncio.sleep(0.005)
        if self._task is not None:
            self._task.cancel()
            await asyncio.gather(self._task, return_exceptions=True)
        self._executor.shutdown(wait=True)

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize() if self._queue else 0

    @property
    def in_flight(self) -> int:
        return len(self._pending)

    # -- admission -----------------------------------------------------------

    def submit(self, kind: str, key: tuple, nest: LoopNest,
               machine: MachineModel, params: dict,
               unroll: tuple[int, ...] | None = None) -> asyncio.Future:
        """Admit one request; returns a future resolving to the JSON-ready
        payload.  Raises :class:`Overloaded` on a full queue and
        :class:`RuntimeError` once the service is draining."""
        assert self._loop is not None and self._queue is not None, \
            "MicroBatcher.submit before start()"
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
        job = _Job(kind=kind, key=key, nest=nest, machine=machine,
                   params=params, unroll=unroll, futures=[future],
                   trace=obs.current_context())
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            self.metrics.count("serve.rejected")
            raise Overloaded(self._retry_after()) from None
        self._pending[key] = job
        return future

    def _retry_after(self) -> int:
        # A full queue clears in roughly queue_limit/max_batch flushes of
        # one deadline each; round up and never advise less than a second.
        flushes = self.config.queue_limit / max(1, self.config.max_batch)
        return max(1, math.ceil(flushes * self.config.deadline_s))

    # -- dispatch ------------------------------------------------------------

    async def _dispatch(self) -> None:
        assert self._loop is not None and self._queue is not None
        while True:
            first = await self._queue.get()
            batch = [first]
            deadline = self._loop.time() + self.config.deadline_s
            while len(batch) < self.config.max_batch:
                remaining = deadline - self._loop.time()
                if remaining <= 0:
                    break
                try:
                    batch.append(await asyncio.wait_for(self._queue.get(),
                                                        remaining))
                except asyncio.TimeoutError:
                    break
            await self._flush(batch)

    async def _flush(self, batch: list[_Job]) -> None:
        assert self._loop is not None
        self.metrics.count("serve.batches")
        self.metrics.count("serve.batched_jobs", len(batch))
        with obs.span("serve.flush", jobs=len(batch)):
            outcomes = await self._execute(batch)
        for job, outcome in zip(batch, outcomes):
            # No awaits between the cache fill, the pending removal, and
            # the future resolution: a submit() for the same key lands
            # either on the pending job above or on the cache below.
            payload, error = outcome
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

    async def _execute(self, batch: list[_Job]) -> list[tuple]:
        """Run every job; returns ``(payload, None)`` or ``(None, error)``
        per job, in batch order."""
        return list(await asyncio.gather(
            *(self._loop.run_in_executor(self._executor, self._run_job, job)
              for job in batch)))

    # -- the engine calls (executor threads) ---------------------------------

    def _run_job(self, job: _Job) -> tuple:
        # Executor threads do not inherit the event loop's contextvars;
        # re-activate the submitting request's trace context so engine
        # spans nest under the serve.request span that caused them.
        with obs.activate(job.trace), \
                obs.span("serve.execute", kind=job.kind,
                         nest=job.nest.name), \
                self.engine.profiler.profile("serve.flush"):
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
