"""The cluster front door: structural-key routing over N warm workers.

:class:`ClusterRouter` listens on one public port and forwards every
``POST /v1/*`` request to one of the supervisor's worker processes:

* **sticky routing** -- the request body's nest spec is coerced to its
  :meth:`~repro.ir.nodes.LoopNest.structural_key` by
  :func:`repro.api.coerce_remote_nest`, which never touches the file
  system (memoized in a small :class:`~repro.engine.memo.Memo` so
  repeated bodies never re-parse on the router loop) and looked
  up on the consistent-hash ring.  Identical nests therefore always hit
  the worker whose memo tables and disk-cache namespace are already
  warm for them -- the cluster-level analogue of the engine's own
  memoization.  Binary-frame requests (``POST /v2/frame``) carry the
  key in the frame header, so the router routes them without parsing
  the body at all;
* **the L2 result cache** -- analysis requests are pure, so 200
  responses are cached at the front door keyed on the raw request
  bytes; a warm repeat is answered without a worker hop (the
  ``x-repro-cache: hit`` header says so).  Hot keys are tracked, and
  after ``scale``/``reload`` the top-K hot requests are speculatively
  replayed to every READY worker so fresh shards start warm;
* **fallback** -- bodies that yield no key (unparseable JSON, unknown
  kernel names, malformed specs) go to the least-pending READY worker,
  which produces the authoritative error response so error shapes stay
  byte-identical with single-process serving;
* **failover** -- when the chosen worker cannot be reached (crashed
  mid-request, draining away), the router retries the next workers in
  ring-preference order (bounded by ``retry_attempts``); analysis
  requests are pure, so replay is safe.  With no READY workers at all
  the answer is ``503`` with ``Retry-After``;
* **federation** -- ``GET /metrics`` fans out to every READY worker,
  merges the engine snapshots through the same
  :meth:`~repro.engine.metrics.Metrics.merge` path the offline tools
  use, and reports the merged totals plus the raw per-shard documents
  (JSON) or per-shard-labeled series (Prometheus text);
* **admin** -- ``GET /cluster/status`` and ``POST
  /cluster/{drain,scale,reload}`` drive the supervisor; ``python -m
  repro cluster`` is a thin client over these routes.

Trace ids propagate: the router's ``cluster.route`` span context rides
the ``x-repro-trace-id``/``x-repro-parent-id`` headers, so worker-side
spans nest under the routed request.  Every proxied response carries
``x-repro-shard`` naming the worker that served it.
"""

from __future__ import annotations

import asyncio
import collections
import hashlib
import json
import signal
import threading
import time

from repro import api, obs
from repro.cluster.membership import Membership, WorkerInfo
from repro.cluster.supervisor import ClusterConfig, Supervisor
from repro.engine.memo import Memo
from repro.engine.metrics import Metrics
from repro.serve import protocol
from repro.serve.http import (
    Request,
    json_response,
    negotiated_error,
    raw_response,
    read_request,
    text_response,
    wants_prometheus,
)
from repro.serve.server import PARENT_ID_HEADER, TRACE_ID_HEADER

__all__ = ["ClusterRouter", "ClusterThread", "SHARD_HEADER", "run_cluster"]

#: Response header naming the worker slot that served a proxied request.
SHARD_HEADER = "x-repro-shard"

#: Idle keep-alive connections the router parks per worker.
_POOL_SIZE = 8

#: Bound on header lines when reading a worker's response.
_MAX_RESPONSE_HEADERS = 64

#: The key memo's miss marker (``None`` is a remembered "no key").
_UNSEEN = object()

class _WorkerError(Exception):
    """The worker could not produce a response (connect/read failure)."""

class ClusterRouter:
    """One public listener + supervisor + membership; loop-confined."""

    def __init__(self, config: ClusterConfig | None = None):
        self.config = config if config is not None else ClusterConfig()
        self.metrics = Metrics()
        self.membership = Membership(replicas=self.config.ring_replicas)
        self.supervisor = Supervisor(self.config, self.membership,
                                     self.metrics)
        self.port: int | None = None
        self._server: asyncio.AbstractServer | None = None
        self._shutdown = asyncio.Event()
        self._connections: set[asyncio.Task] = set()
        self._writers: set[asyncio.StreamWriter] = set()
        self._started_at = time.monotonic()
        # structural-key memo: normalized nest spec -> ring key (or None
        # when the spec cannot be coerced); key_cache 0 disables it.
        self._keys = (Memo("route_key", self.config.key_cache)
                      if self.config.key_cache > 0 else None)
        # per-slot idle connection pools, invalidated by port change
        self._pools: dict[tuple[int, int], list] = {}
        # L2 result cache: digest of (path, raw body) -> the worker's
        # 200 response (status, content-type, body, shard).  Sound
        # because the API verbs are pure functions of the request.
        self._l2 = (Memo("l2", self.config.l2_cache)
                    if self.config.l2_cache > 0 else None)
        # hot-key tracker + a replayable sample request per key, feeding
        # the post-scale/reload speculative pre-warm.
        self._hot: collections.Counter = collections.Counter()
        self._warm_bodies: dict[str, tuple[str, str, bytes]] = {}
        self._prewarm_task: asyncio.Task | None = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        self.supervisor.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()
        print(f"repro-cluster routing on "
              f"http://{self.config.host}:{self.port} "
              f"({self.config.workers} workers)", flush=True)

    async def wait_ready(self, workers: int | None = None,
                         timeout_s: float | None = None) -> None:
        """Block until ``workers`` shards are READY (default: all)."""
        want = workers if workers is not None else self.config.workers
        deadline = time.monotonic() + (
            timeout_s if timeout_s is not None
            else self.config.startup_timeout_s)
        while len(self.membership.ready()) < want:
            if time.monotonic() > deadline:
                states = self.membership.states()
                raise RuntimeError(
                    f"cluster not ready within "
                    f"{self.config.startup_timeout_s}s: {states}")
            await asyncio.sleep(self.config.probe_interval_s / 4)

    def request_shutdown(self) -> None:
        self._shutdown.set()

    async def shutdown(self) -> None:
        """Close the front door, drain every worker, finish connections."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Release pooled keep-alive connections first: the workers'
        # handler tasks see EOF and exit before the SIGTERM drain.
        self._close_pools()
        await self.supervisor.drain()
        # Nudge parked keep-alive clients: closing the transport wakes
        # their handler task out of read_request so the drain below is
        # bounded by in-flight requests, not idle connections.
        for writer in list(self._writers):
            writer.close()
        if self._connections:
            await asyncio.wait(set(self._connections),
                               timeout=self.config.drain_grace_s)
        self._flush_metrics()

    async def run(self) -> int:
        await self.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_shutdown)
            except (NotImplementedError, RuntimeError):
                pass
        await self._shutdown.wait()
        print("repro-cluster draining...", flush=True)
        await self.shutdown()
        print("repro-cluster stopped", flush=True)
        return 0

    def _close_pools(self) -> None:
        for conns in self._pools.values():
            for _, writer in conns:
                writer.close()
        self._pools.clear()

    def _flush_metrics(self) -> None:
        if not self.config.metrics_path:
            return
        import pathlib
        path = pathlib.Path(self.config.metrics_path)
        document = {
            "uptime_s": time.monotonic() - self._started_at,
            "cluster": self._cluster_summary(),
            "router": {"metrics": self.metrics.snapshot()},
        }
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(document, indent=2, sort_keys=True)
                            + "\n")
        except OSError as err:
            print(f"repro-cluster: cannot flush metrics: {err}", flush=True)

    # -- connection handling -------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        self._writers.add(writer)
        try:
            while True:
                request = await read_request(
                    reader, writer, self.config.max_body,
                    protocol.error_payload,
                    on_oversized=lambda: self.metrics.count(
                        "cluster.oversized"))
                if request is None:
                    break
                response = await self._respond(request)
                writer.write(response)
                await writer.drain()
                if not request.keep_alive or self._shutdown.is_set():
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(self, request: Request) -> bytes:
        close = not request.keep_alive or self._shutdown.is_set()
        path, _, query = request.path.partition("?")
        if path == "/healthz":
            if request.method != "GET":
                return json_response(405, protocol.error_payload(
                    "method_not_allowed", "use GET"), close=close)
            document = self._health_document()
            status = 200 if document["status"] == "ok" else 503
            return json_response(status, document, close=close)
        if path == "/metrics":
            if request.method != "GET":
                return json_response(405, protocol.error_payload(
                    "method_not_allowed", "use GET"), close=close)
            document = await self._federated_document()
            if wants_prometheus(request.headers, query):
                return text_response(
                    200, obs.document_to_exposition(document),
                    obs.PROMETHEUS_CONTENT_TYPE, close=close)
            return json_response(200, document, close=close)
        if path == "/cluster/status":
            if request.method != "GET":
                return json_response(405, protocol.error_payload(
                    "method_not_allowed", "use GET"), close=close)
            return json_response(200, self._status_document(), close=close)
        if path in ("/cluster/drain", "/cluster/scale", "/cluster/reload"):
            if request.method != "POST":
                return json_response(405, protocol.error_payload(
                    "method_not_allowed", "use POST"), close=close)
            return await self._handle_admin(path, request.body)
        if path.startswith("/v1/"):
            if request.method != "POST":
                return json_response(405, protocol.error_payload(
                    "method_not_allowed", "use POST"), close=close)
            return await self._route_api(
                path, request, close,
                key=self.structural_key(request.body),
                content_type="application/json")
        if path == "/v2/frame":
            if request.method != "POST":
                return negotiated_error(request, 405, "method_not_allowed",
                                        "use POST", close=close)
            # The frame header carries the structural key: route on it
            # without ever parsing the payload.
            try:
                frame = protocol.peek_frame(request.body)
            except protocol.ProtocolError as err:
                return negotiated_error(request, err.status, err.error_type,
                                        str(err), close=close)
            return await self._route_api(
                path, request, close, key=frame.key,
                content_type=protocol.CONTENT_TYPE_FRAME)
        return negotiated_error(request, 404, "not_found",
                                f"no route {request.path!r}", close=close)

    # -- admin ---------------------------------------------------------------

    async def _handle_admin(self, path: str, body: bytes) -> bytes:
        self.metrics.count("cluster.admin_requests")
        if path == "/cluster/drain":
            # Answer first, then drain: the caller's connection closes
            # cleanly while run()/ClusterThread tears the cluster down.
            self.request_shutdown()
            return json_response(200, {"ok": True, "draining": True},
                                 close=True)
        if path == "/cluster/reload":
            result = await self.supervisor.reload()
            result["prewarm"] = self._start_prewarm()
            return json_response(200, {"ok": True, **result}, close=False)
        try:
            document = json.loads(body.decode("utf-8")) if body else {}
            target = int(document["workers"])
        except (ValueError, KeyError, UnicodeDecodeError):
            return json_response(400, protocol.error_payload(
                "bad_request", 'scale body must be {"workers": N}'),
                close=False)
        try:
            result = await self.supervisor.scale(target)
        except ValueError as err:
            return json_response(400, protocol.error_payload(
                "bad_request", str(err)), close=False)
        result["prewarm"] = self._start_prewarm()
        return json_response(200, {"ok": True, **result}, close=False)

    # -- speculative pre-warming ---------------------------------------------

    def _start_prewarm(self) -> int:
        """Kick off a background replay of the hottest requests to every
        READY worker; returns how many keys will be replayed."""
        top = [key for key, _ in
               self._hot.most_common(self.config.prewarm_top_k)
               if key in self._warm_bodies]
        if not top or self.config.prewarm_top_k <= 0:
            return 0
        if self._prewarm_task is not None and \
                not self._prewarm_task.done():
            self._prewarm_task.cancel()
        self._prewarm_task = asyncio.ensure_future(self._prewarm(top))
        return len(top)

    async def _prewarm(self, keys: list[str]) -> None:
        # Every READY worker gets every hot request: after a scale-up
        # the ring has re-sliced, so any of them may own any key now.
        # Repeats are near-free on already-warm workers (result cache).
        for info in sorted(self.membership.ready(),
                           key=lambda info: info.slot):
            for key in keys:
                path, content_type, body = self._warm_bodies[key]
                try:
                    await self._worker_request(info, "POST", path, body,
                                               content_type=content_type)
                    self.metrics.count("cluster.prewarm_requests")
                except _WorkerError:
                    self.metrics.count("cluster.prewarm_errors")
                    break

    # -- routing -------------------------------------------------------------

    def structural_key(self, body: bytes) -> str | None:
        """The ring key for a request body, or ``None`` when the nest
        spec cannot be coerced (the fallback path).

        The key is *structural only* -- machine presets and engine
        parameters do not participate -- so every variant of a nest
        shares one shard's warm artifacts.
        """
        try:
            document = json.loads(body.decode("utf-8"))
            spec = document["nest"]
        except (ValueError, KeyError, TypeError, UnicodeDecodeError):
            return None
        if isinstance(spec, str):
            normalized = "s:" + spec
        elif isinstance(spec, dict):
            try:
                normalized = "d:" + json.dumps(spec, sort_keys=True)
            except (TypeError, ValueError):
                return None
        else:
            return None
        if self._keys is not None:
            cached = self._keys.get(normalized, _UNSEEN)
            if cached is not _UNSEEN:
                return cached
        try:
            key = api.coerce_remote_nest(spec).structural_key()
        except Exception:
            key = None
        if self._keys is not None:
            self._keys.put(normalized, key)
        return key

    def _note_hot(self, key: str | None, path: str, content_type: str,
                  body: bytes) -> None:
        if key is None:
            return
        self._hot[key] += 1
        if key not in self._warm_bodies and \
                len(self._warm_bodies) < 4 * max(1,
                                                 self.config.prewarm_top_k):
            self._warm_bodies[key] = (path, content_type, body)

    async def _route_api(self, path: str, request: Request, close: bool,
                         key: str | None,
                         content_type: str) -> bytes:
        self.metrics.count("cluster.requests")
        self.metrics.count("cluster.routed_sticky" if key is not None
                           else "cluster.routed_fallback")
        self._note_hot(key, path, content_type, request.body)
        l2_key = None
        if self._l2 is not None:
            l2_key = hashlib.sha256(path.encode("utf-8") + b"\x00"
                                    + request.body).digest()
            cached = self._l2.get(l2_key)
            if cached is not None:
                self.metrics.count("cluster.l2_hits")
                status, cached_type, body, shard = cached
                return raw_response(status, body, cached_type, close=close,
                                    headers={"x-repro-cache": "hit",
                                             SHARD_HEADER: shard})
            self.metrics.count("cluster.l2_misses")
        with obs.span("cluster.route", path=path,
                      sticky=key is not None):
            candidates = self.membership.route(key)
            if not candidates:
                self.metrics.count("cluster.no_workers")
                return negotiated_error(
                    request, 503, "no_workers",
                    "no ready workers (cluster draining or "
                    "starting); retry later",
                    retry_after=1.0, close=close,
                    headers={"retry-after": "1"})
            attempts = 1 + max(0, self.config.retry_attempts)
            for index, info in enumerate(candidates[:attempts]):
                if index:
                    self.metrics.count("cluster.failovers")
                try:
                    status, headers, body = await self._worker_request(
                        info, "POST", path, request.body,
                        trace=obs.current_context(),
                        content_type=content_type)
                except _WorkerError:
                    self.supervisor.note_suspect(info.slot)
                    continue
                extra = {SHARD_HEADER: str(info.slot)}
                if "retry-after" in headers:
                    extra["retry-after"] = headers["retry-after"]
                response_type = headers.get("content-type",
                                            "application/json")
                if status == 200 and l2_key is not None:
                    self._l2.put(l2_key, (status, response_type, body,
                                          str(info.slot)))
                return raw_response(status, body, response_type,
                                    close=close, headers=extra)
        self.metrics.count("cluster.unrouted")
        return negotiated_error(
            request, 502, "worker_unavailable",
            "every candidate worker failed; the supervisor is "
            "restarting them -- retry", retry_after=1.0, close=close,
            headers={"retry-after": "1"})

    # -- worker HTTP ---------------------------------------------------------

    async def _worker_request(self, info: WorkerInfo, method: str,
                              path: str, body: bytes = b"",
                              trace: tuple[str, str] | None = None,
                              content_type: str = "application/json",
                              ) -> tuple[int, dict, bytes]:
        """One proxied exchange with a worker; pooled keep-alive
        connections, one fresh-connection retry if a pooled (possibly
        stale) connection fails."""
        if info.port is None:
            raise _WorkerError("worker has no port yet")
        pool_key = (info.slot, info.port)
        conn = self._pool_get(pool_key)
        pooled = conn is not None
        info.pending += 1
        try:
            for attempt in range(2):
                if conn is None:
                    try:
                        conn = await asyncio.wait_for(
                            asyncio.open_connection("127.0.0.1", info.port),
                            self.config.probe_timeout_s)
                    except (OSError, asyncio.TimeoutError) as err:
                        raise _WorkerError(f"connect: {err}") from err
                    pooled = False
                try:
                    result = await asyncio.wait_for(
                        self._exchange(conn, info, method, path, body,
                                       trace, content_type),
                        self.config.request_timeout_s + 5.0)
                except (OSError, asyncio.TimeoutError, ConnectionError,
                        asyncio.IncompleteReadError) as err:
                    conn[1].close()
                    conn = None
                    if pooled and attempt == 0:
                        continue  # stale keep-alive: retry once, fresh
                    raise _WorkerError(f"exchange: {err}") from err
                status, headers, payload, keep_alive = result
                if keep_alive:
                    self._pool_put(pool_key, conn)
                else:
                    conn[1].close()
                return status, headers, payload
            raise _WorkerError("unreachable")  # pragma: no cover
        finally:
            info.pending = max(0, info.pending - 1)

    async def _exchange(self, conn, info: WorkerInfo, method: str,
                        path: str, body: bytes,
                        trace: tuple[str, str] | None,
                        content_type: str = "application/json"):
        reader, writer = conn
        lines = [f"{method} {path} HTTP/1.1",
                 f"host: shard-{info.slot}",
                 f"content-length: {len(body)}",
                 f"content-type: {content_type}",
                 "connection: keep-alive"]
        if trace is not None:
            lines.append(f"{TRACE_ID_HEADER}: {trace[0]}")
            lines.append(f"{PARENT_ID_HEADER}: {trace[1]}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
                     + body)
        await writer.drain()
        status_line = await reader.readline()
        parts = status_line.decode("latin-1").split(None, 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise ConnectionError(f"bad status line {status_line!r}")
        status = int(parts[1])
        headers: dict[str, str] = {}
        for _ in range(_MAX_RESPONSE_HEADERS):
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise ConnectionError("worker response header overflow")
        length = int(headers.get("content-length", "0"))
        payload = await reader.readexactly(length) if length else b""
        keep_alive = headers.get("connection", "keep-alive").lower() \
            != "close"
        return status, headers, payload, keep_alive

    def _pool_get(self, pool_key: tuple[int, int]):
        conns = self._pools.get(pool_key)
        while conns:
            reader, writer = conns.pop()
            if not writer.is_closing() and not reader.at_eof():
                return (reader, writer)
            writer.close()
        return None

    def _pool_put(self, pool_key: tuple[int, int], conn) -> None:
        if conn[1].is_closing():
            return
        conns = self._pools.setdefault(pool_key, [])
        if len(conns) < _POOL_SIZE:
            conns.append(conn)
        else:
            conn[1].close()

    # -- documents -----------------------------------------------------------

    def _cluster_summary(self) -> dict:
        ready = self.membership.ready()
        return {
            "workers": self.config.workers,
            "target": self.supervisor.target,
            "ready": len(ready),
            "generation": self.membership.generation,
            "states": self.membership.states(),
            "pending": sum(info.pending
                           for info in self.membership.workers.values()),
            "l2_cache": {"entries": len(self._l2 or ()),
                         "capacity": self.config.l2_cache},
            "hot_keys": len(self._hot),
        }

    def _health_document(self) -> dict:
        summary = self._cluster_summary()
        return {
            "status": "ok" if summary["ready"] else "degraded",
            "role": "router",
            "uptime_s": time.monotonic() - self._started_at,
            "machine": self.config.machine,
            "cluster": summary,
            "wire": {
                "versions": [1, protocol.WIRE_VERSION],
                "frame_content_type": protocol.CONTENT_TYPE_FRAME,
                "frame_path": "/v2/frame",
            },
        }

    def _status_document(self) -> dict:
        return {
            "router": {
                "port": self.port,
                "uptime_s": time.monotonic() - self._started_at,
                "draining": self._shutdown.is_set(),
            },
            "cluster": self._cluster_summary(),
            "membership": self.membership.to_dict(),
        }

    async def _federated_document(self) -> dict:
        """Fan out ``GET /metrics`` to every READY worker and merge."""
        ready = sorted(self.membership.ready(),
                       key=lambda info: info.slot)
        results = await asyncio.gather(
            *(self._fetch_metrics(info) for info in ready),
            return_exceptions=True)
        shards: dict[str, dict] = {}
        merged = Metrics()
        for info, result in zip(ready, results):
            if isinstance(result, dict):
                shards[str(info.slot)] = result
                merged.merge(result.get("metrics", {}))
            else:
                self.metrics.count("cluster.federation_errors")
        return {
            "federated": True,
            "uptime_s": time.monotonic() - self._started_at,
            "cluster": self._cluster_summary(),
            "router": {"metrics": self.metrics.snapshot()},
            "metrics": merged.snapshot(),
            "shards": shards,
        }

    async def _fetch_metrics(self, info: WorkerInfo) -> dict:
        try:
            status, _, body = await self._worker_request(info, "GET",
                                                         "/metrics")
        except _WorkerError as err:
            raise RuntimeError(str(err)) from err
        if status != 200:
            raise RuntimeError(f"worker {info.slot} metrics: HTTP {status}")
        return json.loads(body.decode("utf-8"))

def run_cluster(config: ClusterConfig | None = None) -> int:
    """Blocking entry point for ``python -m repro serve --workers N``."""
    router = ClusterRouter(config)
    try:
        return asyncio.run(router.run())
    except KeyboardInterrupt:
        return 0

class ClusterThread:
    """A live cluster on a daemon thread (tests and the benchmark).

    ::

        with ClusterThread(ClusterConfig(workers=2)) as cluster:
            client = Client("127.0.0.1", cluster.port)
    """

    def __init__(self, config: ClusterConfig | None = None,
                 wait_for: int | None = None):
        self.router = ClusterRouter(config)
        self._wait_for = wait_for
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread = threading.Thread(target=self._main, daemon=True,
                                        name="repro-cluster-thread")
        self._error: BaseException | None = None

    @property
    def port(self) -> int:
        assert self.router.port is not None
        return self.router.port

    @property
    def config(self) -> ClusterConfig:
        return self.router.config

    def _main(self) -> None:
        try:
            asyncio.run(self._serve())
        except BaseException as err:
            self._error = err
            self._ready.set()

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        await self.router.start()
        await self.router.wait_ready(self._wait_for)
        self._ready.set()
        await self.router._shutdown.wait()
        await self.router.shutdown()

    def start(self) -> "ClusterThread":
        self._thread.start()
        self._ready.wait(timeout=self.router.config.startup_timeout_s + 30)
        if self._error is not None:
            raise RuntimeError("cluster failed to start") from self._error
        if self.router.port is None:
            raise RuntimeError("cluster did not come up in time")
        return self

    def stop(self) -> None:
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.router.request_shutdown)
        self._thread.join(timeout=60)

    def run_on_loop(self, coro, timeout_s: float = 30.0):
        """Run ``coro`` on the cluster's event loop (test hook)."""
        assert self._loop is not None
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        return future.result(timeout=timeout_s)

    def __enter__(self) -> "ClusterThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
