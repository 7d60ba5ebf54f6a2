"""A stdlib-only asyncio HTTP/1.1 front end over the analysis engine.

``python -m repro serve`` runs :func:`run_server`, which binds
:class:`AnalysisServer` and blocks until SIGTERM/SIGINT.  Routes:

* ``POST /v1/analyze`` / ``/v1/optimize`` / ``/v1/transform`` -- JSON
  bodies in any :func:`repro.api.coerce_remote_nest` shape (kernel name,
  DO-loop source, serialized nest; never a server-side path), dispatched
  through the :class:`~repro.serve.batcher.MicroBatcher`;
* ``POST /v2/frame`` -- the same three verbs in the binary frame
  encoding (``application/x-repro-frame``, see docs/WIRE.md).  Warm
  repeats are answered from an encoded-response cache keyed on the raw
  payload digest -- no JSON parse, no nest coercion, no re-hash, no
  re-encode -- which is what makes the binary path's p50 a fraction of
  the JSON path's;
* ``GET /healthz`` -- liveness plus the effective defaults;
* ``GET /metrics`` -- the merged engine+serve metrics snapshot (stage
  timings now carry p50/p95/p99), cache statistics, and queue gauges.
  Content-negotiated: JSON by default (byte-compatible with earlier
  releases), Prometheus text exposition with ``Accept: text/plain`` or
  ``/metrics?format=prometheus`` (see docs/OBSERVABILITY.md).

Every request runs under a :mod:`repro.obs` trace span
(``serve.request``), which the batcher propagates onto its executor
threads, so engine stage spans nest under the request that caused them.

Robustness: request bodies are capped (413), admission is bounded (429
with ``Retry-After``), every request has a server-side timeout (504), and
shutdown is the :class:`~repro.serve.http.FrontEnd` drain -- the
listener closes first, the batcher drains everything already accepted,
parked keep-alive connections close, busy ones finish writing, and the
final metrics snapshot is flushed to ``metrics_path`` when configured.

:class:`ServerThread` hosts the same server on a background thread with
its own event loop -- the harness the benchmark and the tests use to
drive a real socket in-process.
"""

from __future__ import annotations

import asyncio
import pathlib
import time

from repro import api, obs
from repro.engine import AnalysisEngine
from repro.engine.memo import Memo
from repro.ir.nodes import nest_identity
from repro.serve import protocol
from repro.serve.batcher import BatchConfig, MicroBatcher, Overloaded
from repro.serve.http import (
    FrontEnd,
    Request as _Request,
    ServiceThread,
    frame_response as _frame_response,
    is_frame_request as _is_frame_request,
    json_response as _response,
    negotiated_error as _negotiated_error,
    serve_blocking,
)

__all__ = ["ServeConfig", "AnalysisServer", "ServerThread", "run_server"]

#: Headers the cluster router uses to parent worker spans under its own
#: request span (see docs/CLUSTER.md).
TRACE_ID_HEADER = "x-repro-trace-id"
PARENT_ID_HEADER = "x-repro-parent-id"

class ServeConfig:
    """Server-level knobs; admission knobs live in :class:`BatchConfig`."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8787,
                 machine: str = "alpha", max_body: int = 64 * 1024,
                 request_timeout_s: float = 30.0,
                 shutdown_grace_s: float = 30.0,
                 metrics_path: str | None = None,
                 batch: BatchConfig | None = None,
                 shard: str | None = None,
                 frame_cache: int = 2048):
        self.host = host
        self.port = port
        self.machine = machine
        self.max_body = max_body
        self.request_timeout_s = request_timeout_s
        self.shutdown_grace_s = shutdown_grace_s
        self.metrics_path = metrics_path
        self.batch = batch if batch is not None else BatchConfig()
        #: Cluster shard label; a worker under repro.cluster tags its
        #: health/metrics documents with it so the router can federate.
        self.shard = shard
        #: Encoded-response cache entries for the /v2/frame fast path
        #: (0 disables it).
        self.frame_cache = frame_cache

class AnalysisServer(FrontEnd):
    """One engine, one batcher, one listener; drive with :meth:`run` (CLI)
    or :meth:`start`/:meth:`shutdown` (embedding)."""

    def __init__(self, config: ServeConfig | None = None,
                 engine: AnalysisEngine | None = None):
        config = config if config is not None else ServeConfig()
        self.engine = engine if engine is not None else AnalysisEngine()
        super().__init__(config, self.engine.metrics, label="repro-serve",
                         oversized_counter="serve.oversized",
                         grace_s=config.shutdown_grace_s)
        self.batcher = MicroBatcher(self.engine, self.config.batch)
        #: Encoded 200-response frames by payload digest (``None`` when
        #: ``frame_cache`` is 0).  Keyed by
        #: :func:`protocol.request_cache_key`, which is derived from the
        #: payload bytes server-side -- a client lying in its key header
        #: cannot plant an entry any other request would hit.
        self._frame_cache = (Memo("frame", self.config.frame_cache)
                             if self.config.frame_cache > 0 else None)

    # -- front-end hooks -----------------------------------------------------

    def _start_backend(self) -> None:
        self.batcher.start()

    def _banner(self) -> str:
        return (f"repro-serve listening on "
                f"http://{self.config.host}:{self.port}")

    async def _drain_backend(self) -> None:
        await self.batcher.stop()

    def _flushed(self, path: pathlib.Path) -> None:
        if self.engine.profiler.enabled:
            # The profiling contract: the top-N summary lands next to
            # the results JSON it explains.
            try:
                self.engine.profiler.write(
                    path.with_name(path.stem + ".profile.json"))
            except OSError as err:
                print(f"repro-serve: cannot flush profile: {err}",
                      flush=True)

    async def _route(self, request: _Request, path: str,
                     close: bool) -> bytes:
        """The two data-plane routes: v1 JSON and the v2 binary frame."""
        if not (path.startswith("/v1/") or path == "/v2/frame"):
            return _negotiated_error(request, 404, "not_found",
                                     f"no route {request.path!r}",
                                     close=close)
        # A cluster router forwards its trace context via headers so this
        # worker's spans nest under the routed request's span.
        with obs.activate(self._remote_trace(request)), \
                obs.span("serve.request", path=path, method=request.method):
            if path == "/v2/frame":
                if request.method != "POST":
                    return _negotiated_error(
                        request, 405, "method_not_allowed", "use POST",
                        close=close)
                if not _is_frame_request(request):
                    return _negotiated_error(
                        request, 415, "unsupported_media_type",
                        f"POST /v2/frame takes "
                        f"{protocol.CONTENT_TYPE_FRAME}", close=close)
                status, frame, extra = await self._handle_frame(request)
                return _frame_response(status, frame, close=close,
                                       headers=extra)
            if request.method != "POST":
                return _response(405, protocol.error_payload(
                    "method_not_allowed", "use POST"), close=close)
            status, payload, extra = await self._handle_api(
                path[len("/v1/"):], request.body)
            return _response(status, payload, close=close, headers=extra)

    @staticmethod
    def _remote_trace(request: _Request) -> tuple[str, str] | None:
        trace_id = request.headers.get(TRACE_ID_HEADER)
        parent_id = request.headers.get(PARENT_ID_HEADER)
        if trace_id and parent_id:
            return (trace_id, parent_id)
        return None

    async def _handle_api(self, kind: str,
                          body: bytes) -> tuple[int, dict, dict]:
        try:
            spec = protocol.parse_request(kind, body, self.config.machine)
        except protocol.ProtocolError as err:
            return err.status, err.payload(), {}
        return await self._execute(spec)

    async def _handle_frame(self,
                            request: _Request) -> tuple[int, bytes, dict]:
        """The binary data plane: decode a frame, execute, re-encode --
        or, on a warm repeat, return the cached encoded response without
        touching the payload at all."""
        try:
            frame = protocol.peek_frame(request.body)
            cache_key = protocol.request_cache_key(frame)
            cached = (self._frame_cache.get(cache_key)
                      if self._frame_cache is not None else None)
            if cached is not None:
                self.engine.metrics.count("serve.frame_fast_hits")
                return 200, cached, {}
            spec, frame = protocol.parse_frame_request(
                request.body, self.config.machine)
        except protocol.ProtocolError as err:
            return err.status, protocol.encode_response_frame(
                err.payload(), error=True), {}
        status, payload, extra = await self._execute(spec)
        encoded = protocol.encode_response_frame(
            payload, error=status != 200, kind=spec.kind,
            key=payload.get("structural_key") if status == 200 else None)
        if status == 200 and self._frame_cache is not None:
            self._frame_cache.put(cache_key, encoded)
        self.engine.metrics.count("serve.frame_fast_misses")
        return status, encoded, extra

    async def _execute(self,
                       spec: protocol.RequestSpec) -> tuple[int, dict, dict]:
        """Coerce, dispatch through the batcher, await: the shared core
        of both wire encodings."""
        try:
            nest = api.coerce_remote_nest(spec.nest)
        except api.NestResolutionError as err:
            status, error_type = protocol.status_for_resolution(err)
            return status, protocol.error_payload(error_type, str(err)), {}
        try:
            machine = api.coerce_machine(spec.machine)
        except ValueError as err:
            return 400, protocol.error_payload("unknown_machine",
                                               str(err)), {}
        key = (spec.kind, nest_identity(nest), machine.name,
               spec.params_key(), spec.unroll)
        try:
            future = self.batcher.submit(spec.kind, key, nest, machine,
                                         spec.params, spec.unroll)
        except Overloaded as err:
            return (429,
                    protocol.error_payload(
                        "overloaded",
                        "admission queue is full; retry later",
                        retry_after=err.retry_after_s),
                    {"retry-after": str(err.retry_after_s)})
        except RuntimeError:
            return 503, protocol.error_payload(
                "shutting_down", "service is draining; retry elsewhere"), {}
        try:
            payload = await asyncio.wait_for(
                future, self.config.request_timeout_s)
        except asyncio.TimeoutError:
            self.engine.metrics.count("serve.timeouts")
            return 504, protocol.error_payload(
                "timeout", f"no result within "
                           f"{self.config.request_timeout_s}s"), {}
        except ValueError as err:  # e.g. an illegal explicit unroll vector
            return 400, protocol.error_payload("bad_request", str(err)), {}
        except Exception as err:
            self.engine.metrics.count("serve.errors")
            return 500, protocol.error_payload(
                "internal", f"{type(err).__name__}: {err}"), {}
        self.engine.metrics.count("serve.responses_2xx")
        if spec.tier is not None:
            # The exact engine answers every tier; echo that -- on a
            # copy: the batcher's payload dict is shared with coalesced
            # waiters and caches.
            payload = dict(payload, tier="exact")
        return 200, payload, {}

    # -- documents -----------------------------------------------------------

    def _health(self) -> tuple[int, dict]:
        doc = {
            "status": "ok",
            "uptime_s": time.monotonic() - self._started_at,
            "machine": self.config.machine,
            "defaults": dict(protocol.DEFAULT_PARAMS),
            "queue_depth": self.batcher.queue_depth,
            "in_flight": self.batcher.in_flight,
            "wire": {
                "versions": [1, protocol.WIRE_VERSION],
                "frame_content_type": protocol.CONTENT_TYPE_FRAME,
                "frame_path": "/v2/frame",
            },
            "tiers": {"supported": ["exact"], "model": None,
                      "auto_confidence": None},
        }
        if self.config.shard is not None:
            doc["shard"] = self.config.shard
        return 200, doc

    def _metrics_document(self) -> dict:
        doc = {
            "uptime_s": time.monotonic() - self._started_at,
            "queue_depth": self.batcher.queue_depth,
            "in_flight": self.batcher.in_flight,
            "metrics": self.engine.metrics.snapshot(),
            "cache": self.engine.cache_stats(),
            "frame_cache": {"entries": len(self._frame_cache or ()),
                            "capacity": self.config.frame_cache},
            "batch_config": {
                "queue_limit": self.config.batch.queue_limit,
                "threads": self.config.batch.threads,
            },
        }
        if self.config.shard is not None:
            doc["shard"] = self.config.shard
        return doc

def run_server(config: ServeConfig | None = None,
               engine: AnalysisEngine | None = None) -> int:
    """Blocking entry point for ``python -m repro serve``."""
    return serve_blocking(AnalysisServer(config, engine))

class ServerThread(ServiceThread):
    """A live server on a daemon thread (tests and the benchmark harness).

    ::

        with ServerThread(config) as handle:
            client = Client("127.0.0.1", handle.port)
    """

    def __init__(self, config: ServeConfig | None = None,
                 engine: AnalysisEngine | None = None):
        self.server = AnalysisServer(config, engine)
        super().__init__(self.server)

    @property
    def engine(self) -> AnalysisEngine:
        return self.server.engine
