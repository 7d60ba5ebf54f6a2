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
shutdown is graceful -- the listener closes first, the batcher drains
everything already accepted, open connections finish writing, and the
final metrics snapshot is flushed to ``metrics_path`` when configured.

:class:`ServerThread` hosts the same server on a background thread with
its own event loop -- the harness the benchmark and the tests use to
drive a real socket in-process.
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import signal
import threading
import time

from repro import api, obs
from repro.engine import AnalysisEngine
from repro.engine.memo import Memo
from repro.ir.nodes import nest_identity
from repro.predict.model import load_default_model, load_model
from repro.serve import protocol
from repro.serve.batcher import BatchConfig, MicroBatcher, Overloaded
from repro.serve.http import (
    Request as _Request,
    frame_response as _frame_response,
    is_frame_request as _is_frame_request,
    json_response as _response,
    negotiated_error as _negotiated_error,
    read_request as _read_http_request,
    text_response as _text_response,
    wants_prometheus as _wants_prometheus_headers,
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
                 frame_cache: int = 2048,
                 model_path: str | None = None,
                 predict: bool = True,
                 auto_confidence: float | None = None,
                 validate_fast: bool = True):
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
        #: Model artifact for the tier=fast predictor; ``None`` loads
        #: the committed default (docs/PREDICT.md).
        self.model_path = model_path
        #: ``False`` disables the fast tier entirely (tier=fast then
        #: falls back to exact and counts ``predict.unsupported``).
        self.predict = predict
        #: tier=auto serves fast only at or above this confidence;
        #: ``None`` uses the artifact's embedded floor.
        self.auto_confidence = auto_confidence
        #: Asynchronously re-answer every fast response with the exact
        #: engine and count agreement (``predict.validated`` /
        #: ``predict.mismatch``).
        self.validate_fast = validate_fast

class AnalysisServer:
    """One engine, one batcher, one listener; drive with :meth:`run` (CLI)
    or :meth:`start`/:meth:`shutdown` (embedding)."""

    def __init__(self, config: ServeConfig | None = None,
                 engine: AnalysisEngine | None = None):
        self.config = config if config is not None else ServeConfig()
        self.engine = engine if engine is not None else AnalysisEngine()
        self.batcher = MicroBatcher(self.engine, self.config.batch)
        #: The tier=fast predictor: an explicit artifact when configured
        #: (load failures are startup failures), else the committed
        #: default, else ``None`` -- the server then serves exact only.
        if not self.config.predict:
            self.predictor = None
        elif self.config.model_path is not None:
            self.predictor = load_model(self.config.model_path)
        else:
            self.predictor = load_default_model()
        self._validations: set[asyncio.Task] = set()
        self.port: int | None = None
        self._server: asyncio.AbstractServer | None = None
        self._shutdown = asyncio.Event()
        self._connections: set[asyncio.Task] = set()
        self._writers: set[asyncio.StreamWriter] = set()
        self._started_at = time.monotonic()
        #: Encoded 200-response frames by payload digest (``None`` when
        #: ``frame_cache`` is 0).  Keyed by
        #: :func:`protocol.request_cache_key`, which is derived from the
        #: payload bytes server-side -- a client lying in its key header
        #: cannot plant an entry any other request would hit.
        self._frame_cache = (Memo("frame", self.config.frame_cache)
                             if self.config.frame_cache > 0 else None)

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        self.batcher.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()
        print(f"repro-serve listening on "
              f"http://{self.config.host}:{self.port}", flush=True)

    def request_shutdown(self) -> None:
        self._shutdown.set()

    async def shutdown(self) -> None:
        """Stop accepting, drain in-flight work, flush metrics."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.batcher.stop()
        # The batcher drained everything it accepted, so any pending
        # fast-tier validations resolve promptly; give them a bounded
        # window to record their verdicts before metrics flush.
        if self._validations:
            await asyncio.wait(set(self._validations),
                               timeout=self.config.shutdown_grace_s)
        if self._connections:
            await asyncio.wait(set(self._connections),
                               timeout=self.config.shutdown_grace_s)
        # Idle keep-alive connections (parked in a client's or the
        # cluster router's pool) never finish on their own: closing the
        # transport feeds the parked readline an EOF, so the handler
        # exits through its normal path (cancelling instead would make
        # py3.11's stream done-callback re-raise CancelledError into
        # the loop's exception handler).
        for writer in set(self._writers):
            writer.close()
        if self._connections:
            await asyncio.wait(set(self._connections),
                               timeout=self.config.shutdown_grace_s)
        self._flush_metrics()

    async def run(self) -> int:
        """The CLI entry: serve until SIGTERM/SIGINT, then drain; 0 on a
        clean exit."""
        await self.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_shutdown)
            except (NotImplementedError, RuntimeError):
                pass  # non-Unix loop: Ctrl-C still lands as KeyboardInterrupt
        await self._shutdown.wait()
        print("repro-serve draining...", flush=True)
        await self.shutdown()
        print("repro-serve stopped", flush=True)
        return 0

    def _flush_metrics(self) -> None:
        if not self.config.metrics_path:
            return
        path = pathlib.Path(self.config.metrics_path)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(self._metrics_document(), indent=2,
                                       sort_keys=True) + "\n")
        except OSError as err:
            print(f"repro-serve: cannot flush metrics: {err}", flush=True)
        if self.engine.profiler.enabled:
            # The profiling contract: the top-N summary lands next to
            # the results JSON it explains.
            try:
                self.engine.profiler.write(
                    path.with_name(path.stem + ".profile.json"))
            except OSError as err:
                print(f"repro-serve: cannot flush profile: {err}",
                      flush=True)

    # -- connection handling -------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        self._writers.add(writer)
        try:
            while True:
                request = await self._read_request(reader, writer)
                if request is None:
                    break
                response = await self._respond(request)
                writer.write(response)
                await writer.drain()
                if not request.keep_alive or self._shutdown.is_set():
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange
        finally:
            if task is not None:
                self._connections.discard(task)
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> _Request | None:
        return await _read_http_request(
            reader, writer, self.config.max_body, protocol.error_payload,
            on_oversized=lambda: self.engine.metrics.count("serve.oversized"))

    # -- routing -------------------------------------------------------------

    async def _respond(self, request: _Request) -> bytes:
        close = not request.keep_alive or self._shutdown.is_set()
        path, _, query = request.path.partition("?")
        if path == "/healthz":
            if request.method != "GET":
                return _response(405, protocol.error_payload(
                    "method_not_allowed", "use GET"), close=close)
            return _response(200, self._health_document(), close=close)
        if path == "/metrics":
            if request.method != "GET":
                return _response(405, protocol.error_payload(
                    "method_not_allowed", "use GET"), close=close)
            if self._wants_prometheus(request, query):
                return _text_response(
                    200, obs.document_to_exposition(
                        self._metrics_document()),
                    obs.PROMETHEUS_CONTENT_TYPE, close=close)
            return _response(200, self._metrics_document(), close=close)
        if path.startswith("/v1/") or path == "/v2/frame":
            # A cluster router forwards its trace context via headers so
            # this worker's spans nest under the routed request's span.
            with obs.activate(self._remote_trace(request)), \
                    obs.span("serve.request", path=path,
                             method=request.method):
                return await self._respond_data(request, path, close)
        return _negotiated_error(request, 404, "not_found",
                                 f"no route {request.path!r}", close=close)

    async def _respond_data(self, request: _Request, path: str,
                            close: bool) -> bytes:
        """The two data-plane routes: v1 JSON and the v2 binary frame."""
        if path == "/v2/frame":
            if request.method != "POST":
                return _negotiated_error(request, 405, "method_not_allowed",
                                         "use POST", close=close)
            if not _is_frame_request(request):
                return _negotiated_error(
                    request, 415, "unsupported_media_type",
                    f"POST /v2/frame takes "
                    f"{protocol.CONTENT_TYPE_FRAME}", close=close)
            status, frame, extra = await self._handle_frame(request)
            return _frame_response(status, frame, close=close, headers=extra)
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

    @staticmethod
    def _wants_prometheus(request: _Request, query: str) -> bool:
        return _wants_prometheus_headers(request.headers, query)

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
        if spec.tier in ("fast", "auto") and spec.kind == "optimize":
            response = self._try_fast(spec, nest, machine)
            if response is not None:
                return response
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
            # Echo which tier answered -- on a copy: the batcher's
            # payload dict is shared with coalesced waiters and caches.
            payload = dict(payload, tier="exact")
        return 200, payload, {}

    # -- the learned fast tier (docs/PREDICT.md) ------------------------------

    def _fast_supported(self, spec: protocol.RequestSpec, nest) -> bool:
        """The fast tier answers only the parameter space the model was
        trained on; anything else falls through to the exact engine."""
        predictor = self.predictor
        if predictor is None or not predictor.supports_depth(nest.depth):
            return False
        trained_loops = int(predictor.trained.get("max_loops", 2))
        if spec.params.get("max_loops", 2) != trained_loops:
            return False
        if spec.params.get("include_cache", True) is False:
            return False
        if spec.params.get("simd"):
            return False  # pack reports come only from the exact engine
        return True

    def _try_fast(self, spec: protocol.RequestSpec, nest,
                  machine) -> tuple[int, dict, dict] | None:
        """Answer from the predictor, or ``None`` to fall through to the
        exact path (no model, unsupported request, or -- for tier=auto --
        a prediction below the confidence floor)."""
        if not self._fast_supported(spec, nest):
            self.engine.metrics.count("predict.unsupported")
            return None
        predictor = self.predictor
        bound = spec.params.get("bound", protocol.DEFAULT_PARAMS["bound"])
        trip = spec.params.get("trip", protocol.DEFAULT_PARAMS["trip"])
        with obs.span("predict.fast", nest=nest.name,
                      model=predictor.model_id):
            prediction = predictor.predict(nest, machine, bound=bound,
                                           trip=trip)
        if prediction is None:
            self.engine.metrics.count("predict.unsupported")
            return None
        floor = (self.config.auto_confidence
                 if self.config.auto_confidence is not None
                 else predictor.confidence_floor)
        if spec.tier == "auto" and prediction.confidence < floor:
            self.engine.metrics.count("predict.low_confidence")
            return None
        self.engine.metrics.count("predict.fast_served")
        payload = protocol.predict_payload(nest, machine, prediction)
        if self.config.validate_fast:
            self._enqueue_validation(spec, nest, machine, prediction)
        return 200, payload, {}

    def _enqueue_validation(self, spec: protocol.RequestSpec, nest,
                            machine, prediction) -> None:
        """Queue the exact computation behind the fast answer; agreement
        lands in ``predict.validated`` / ``predict.mismatch``.  Dropped
        (and counted) rather than queued when admission is full -- the
        fast answer was already sent, so validation must never create
        backpressure of its own."""
        key = ("optimize", nest_identity(nest), machine.name,
               spec.params_key(), None)
        try:
            future = self.batcher.submit("optimize", key, nest, machine,
                                         spec.params, None)
        except (Overloaded, RuntimeError):
            self.engine.metrics.count("predict.validation_dropped")
            return
        task = asyncio.ensure_future(self._validate(future, prediction))
        self._validations.add(task)
        task.add_done_callback(self._validations.discard)

    async def _validate(self, future, prediction) -> None:
        try:
            payload = await future
        except Exception:
            self.engine.metrics.count("predict.validation_dropped")
            return
        with obs.span("predict.validate", model=prediction.model_id):
            exact = tuple(payload.get("unroll") or ())
            self.engine.metrics.count("predict.validated")
            if exact != prediction.unroll:
                self.engine.metrics.count("predict.mismatch")

    # -- documents -----------------------------------------------------------

    def _health_document(self) -> dict:
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
            "tiers": {
                "supported": (list(protocol.TIERS)
                              if self.predictor is not None
                              else ["exact"]),
                "model": (self.predictor.describe()
                          if self.predictor is not None else None),
                "auto_confidence": (
                    self.config.auto_confidence
                    if self.config.auto_confidence is not None
                    else (self.predictor.confidence_floor
                          if self.predictor is not None else None)),
            },
        }
        if self.config.shard is not None:
            doc["shard"] = self.config.shard
        return doc

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
    server = AnalysisServer(config, engine)
    try:
        return asyncio.run(server.run())
    except KeyboardInterrupt:
        return 0

class ServerThread:
    """A live server on a daemon thread (tests and the benchmark harness).

    ::

        with ServerThread(config) as handle:
            client = Client("127.0.0.1", handle.port)
    """

    def __init__(self, config: ServeConfig | None = None,
                 engine: AnalysisEngine | None = None):
        self.server = AnalysisServer(config, engine)
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread = threading.Thread(target=self._main, daemon=True,
                                        name="repro-serve-thread")
        self._error: BaseException | None = None

    @property
    def port(self) -> int:
        assert self.server.port is not None
        return self.server.port

    @property
    def engine(self) -> AnalysisEngine:
        return self.server.engine

    def _main(self) -> None:
        try:
            asyncio.run(self._serve())
        except BaseException as err:  # surface startup failures to start()
            self._error = err
            self._ready.set()

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        await self.server.start()
        self._ready.set()
        await self.server._shutdown.wait()
        await self.server.shutdown()

    def start(self) -> "ServerThread":
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._error is not None:
            raise RuntimeError("server failed to start") from self._error
        if self.server.port is None:
            raise RuntimeError("server did not come up within 30s")
        return self

    def stop(self) -> None:
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.server.request_shutdown)
        self._thread.join(timeout=30)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
