"""Shared HTTP/1.1 primitives of the serving stack.

One module owns the request/response byte-level plumbing so the
single-process server (:mod:`repro.serve.server`) and the cluster router
(:mod:`repro.cluster.router`) speak byte-identical HTTP by construction:

* :class:`Request` / :func:`read_request` -- bounded request parsing
  (request line, capped header count, ``content-length`` body with a
  caller-supplied limit);
* :func:`json_response` / :func:`frame_response` / :func:`text_response`
  / :func:`raw_response` -- response serialization with keep-alive
  bookkeeping and extra headers (``Retry-After``, shard tags, ...);
* :func:`is_frame_request` / :func:`negotiated_error` -- the v2 wire
  content negotiation: a request that arrived as a binary frame
  (``application/x-repro-frame``) gets its errors back as frames, every
  other request gets JSON, both carrying the one
  :func:`repro.serve.protocol.error_payload` schema;
* :func:`wants_prometheus` -- the ``GET /metrics`` content negotiation
  shared by every metrics endpoint (``?format=prometheus`` wins, else an
  ``Accept`` header that prefers ``text/plain``);
* :class:`FrontEnd` -- the one listener lifecycle: accept, the keep-alive
  connection loop, ``GET /healthz`` / ``GET /metrics``, the SIGTERM run
  loop, the drain and the metrics-file flush.  The server, the cluster
  router and (through the server) the cluster worker supply only hooks;
* :class:`ServiceThread` / :func:`serve_blocking` -- a front end on a
  daemon thread (tests, benchmarks) or in the foreground (the CLI).

Routing and semantics beyond those two GET routes stay with the callers.
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import signal
import threading
import time
import urllib.parse

from repro import obs
from repro.serve.protocol import (
    CONTENT_TYPE_FRAME,
    encode_response_frame,
    error_payload,
)

__all__ = [
    "REASONS",
    "FrontEnd",
    "Request",
    "ServiceThread",
    "frame_response",
    "is_frame_request",
    "json_response",
    "negotiated_error",
    "raw_response",
    "read_request",
    "serve_blocking",
    "text_response",
    "wants_prometheus",
]

REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 502: "Bad Gateway",
    503: "Service Unavailable", 504: "Gateway Timeout",
}

#: Upper bound on header lines per request (readline bounds each line).
MAX_HEADERS = 256

class Request:
    """One parsed HTTP request."""

    __slots__ = ("method", "path", "headers", "body", "keep_alive")

    def __init__(self, method: str, path: str, headers: dict,
                 body: bytes, keep_alive: bool):
        self.method = method
        self.path = path
        self.headers = headers
        self.body = body
        self.keep_alive = keep_alive

async def read_request(reader: asyncio.StreamReader,
                       writer: asyncio.StreamWriter,
                       max_body: int,
                       on_oversized=None) -> Request | None:
    """Parse one request off the stream.

    Malformed requests are answered inline (400/413 with the
    :func:`~repro.serve.protocol.error_payload` envelope) and ``None`` is
    returned; ``None`` also means the peer closed the connection.
    ``on_oversized`` is called (no arguments) when a body exceeds
    ``max_body``, so the caller can count the rejection.
    """
    try:
        line = await reader.readline()
    except (ValueError, ConnectionError):
        return None
    if not line or not line.strip():
        return None
    parts = line.decode("latin-1").split()
    if len(parts) != 3:
        writer.write(json_response(400, error_payload(
            "bad_request", "malformed request line"), close=True))
        await writer.drain()
        return None
    method, path = parts[0].upper(), parts[1]
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADERS):
        header = await reader.readline()
        if header in (b"\r\n", b"\n", b""):
            break
        name, _, value = header.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    else:
        writer.write(json_response(400, error_payload(
            "bad_request", "too many headers"), close=True))
        await writer.drain()
        return None
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        length = -1
    if length < 0 or length > max_body:
        if on_oversized is not None:
            on_oversized()
        writer.write(json_response(413, error_payload(
            "payload_too_large",
            f"body limit is {max_body} bytes"), close=True))
        await writer.drain()
        return None
    body = await reader.readexactly(length) if length else b""
    keep_alive = headers.get("connection", "keep-alive").lower() != "close"
    return Request(method, path, headers, body, keep_alive)

def json_response(status: int, payload: dict, close: bool = False,
                  headers: dict | None = None) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    return raw_response(status, body, "application/json", close, headers)

def frame_response(status: int, frame: bytes, close: bool = False,
                   headers: dict | None = None) -> bytes:
    """Serialize an already-encoded binary frame as the response body."""
    return raw_response(status, frame, CONTENT_TYPE_FRAME, close, headers)

def is_frame_request(request: Request) -> bool:
    """Did this request arrive in the binary frame encoding?"""
    content_type = request.headers.get("content-type", "")
    return content_type.split(";", 1)[0].strip().lower() == \
        CONTENT_TYPE_FRAME

def negotiated_error(request: "Request | None", status: int,
                     error_type: str, message: str,
                     retry_after: float | None = None,
                     close: bool = False,
                     headers: dict | None = None) -> bytes:
    """One error response in the encoding the request arrived in.

    Frame requests get a :data:`~repro.serve.protocol.FRAME_ERROR` frame,
    everything else (including unparsable requests, ``request is None``)
    gets JSON; both carry the same
    :func:`repro.serve.protocol.error_payload` document.
    """
    payload = error_payload(error_type, message, retry_after=retry_after)
    if request is not None and is_frame_request(request):
        return frame_response(status, encode_response_frame(
            payload, error=True), close, headers)
    return json_response(status, payload, close, headers)

def text_response(status: int, text: str, content_type: str,
                  close: bool = False,
                  headers: dict | None = None) -> bytes:
    return raw_response(status, text.encode("utf-8"), content_type, close,
                        headers)

def raw_response(status: int, body: bytes, content_type: str,
                 close: bool = False,
                 headers: dict | None = None) -> bytes:
    lines = [f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}",
             f"content-type: {content_type}",
             f"content-length: {len(body)}",
             f"connection: {'close' if close else 'keep-alive'}"]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body

def wants_prometheus(headers: dict, query: str) -> bool:
    """``?format=prometheus`` wins; else an ``Accept`` header that
    prefers ``text/plain`` (what Prometheus scrapers send)."""
    params = urllib.parse.parse_qs(query)
    fmt = params.get("format", [""])[-1].lower()
    if fmt:
        return fmt in ("prometheus", "text", "openmetrics")
    accept = headers.get("accept", "")
    return "text/plain" in accept.lower()

class FrontEnd:
    """One HTTP listener's lifecycle, shared by every service that binds
    a port: the single-process server, the cluster router and (as a
    server) each cluster worker.

    The front end owns accept, the keep-alive connection loop, the
    ``GET /healthz`` and ``GET /metrics`` routes (405 for other methods,
    Prometheus text on request), the SIGTERM/SIGINT run loop, the drain
    and the flush of the final metrics document to
    ``config.metrics_path``.  ``config`` carries ``host``, ``port``,
    ``max_body`` and ``metrics_path``; ``metrics`` counts
    ``oversized_counter`` per body over ``max_body``; ``grace_s`` bounds
    how long the drain waits for busy connections.  A service supplies
    the hooks below.
    """

    def __init__(self, config, metrics, *, label: str,
                 oversized_counter: str, grace_s: float):
        self.config = config
        self.metrics = metrics
        #: Prefix of the lifecycle lines printed to stdout.
        self.label = label
        self.port: int | None = None
        self._oversized_counter = oversized_counter
        self._grace_s = grace_s
        self._server: asyncio.AbstractServer | None = None
        self._shutdown = asyncio.Event()
        self._connections: set[asyncio.Task] = set()
        # Writers of connections parked between requests.
        self._idle: set[asyncio.StreamWriter] = set()
        self._started_at = time.monotonic()

    # -- hooks ---------------------------------------------------------------

    def _start_backend(self) -> None:
        """Bring up what answers requests, before the listener opens."""
        raise NotImplementedError

    def _banner(self) -> str:
        """The line printed once the listener is bound."""
        raise NotImplementedError

    async def _drain_backend(self) -> None:
        """Finish every request already handed to the backend."""
        raise NotImplementedError

    async def _route(self, request: Request, path: str,
                     close: bool) -> bytes:
        """Answer any request but ``GET /healthz`` and ``GET /metrics``."""
        raise NotImplementedError

    def _health(self) -> tuple[int, dict]:
        """The ``/healthz`` status code and document."""
        raise NotImplementedError

    def _metrics_document(self) -> dict:
        """The document flushed to ``config.metrics_path`` on drain."""
        raise NotImplementedError

    async def _metrics(self) -> dict:
        """The ``GET /metrics`` document: the flushed one unless
        overridden."""
        return self._metrics_document()

    def _flushed(self, path: pathlib.Path) -> None:
        """Write whatever belongs beside the flushed metrics document."""

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        self._start_backend()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()
        print(self._banner(), flush=True)

    def request_shutdown(self) -> None:
        self._shutdown.set()

    async def run(self, on_started=None) -> int:
        """Serve until SIGTERM/SIGINT (or :meth:`request_shutdown`), then
        drain; 0 on a clean exit.  ``on_started``, a coroutine function,
        runs once the listener is bound and the signals are wired."""
        await self.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_shutdown)
            except (NotImplementedError, RuntimeError):
                pass  # non-Unix loop or not the main thread
        if on_started is not None:
            await on_started()
        await self._shutdown.wait()
        print(f"{self.label} draining...", flush=True)
        await self.shutdown()
        print(f"{self.label} stopped", flush=True)
        return 0

    async def shutdown(self) -> None:
        """The drain: close the listener, let the backend finish what it
        accepted, close the connections parked between requests, give
        busy connections up to ``grace_s`` to finish writing, flush."""
        self._shutdown.set()
        if self._server is not None:
            # No wait_closed(): from Python 3.12 it also waits for every
            # open connection, the parked ones included.
            self._server.close()
        await self._drain_backend()
        # Closing a parked connection's transport feeds its readline an
        # EOF, so the handler exits through its normal path (cancelling
        # instead would make py3.11's stream done-callback re-raise
        # CancelledError into the loop's exception handler).
        for writer in list(self._idle):
            writer.close()
        if self._connections:
            await asyncio.wait(set(self._connections),
                               timeout=self._grace_s)
        self._flush_metrics()

    def _flush_metrics(self) -> None:
        if not self.config.metrics_path:
            return
        path = pathlib.Path(self.config.metrics_path)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(self._metrics_document(), indent=2,
                                       sort_keys=True) + "\n")
        except OSError as err:
            print(f"{self.label}: cannot flush metrics: {err}", flush=True)
        self._flushed(path)

    # -- connections ---------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while True:
                self._idle.add(writer)
                try:
                    request = await read_request(
                        reader, writer, self.config.max_body,
                        on_oversized=lambda: self.metrics.count(
                            self._oversized_counter))
                finally:
                    self._idle.discard(writer)
                if request is None:
                    break
                writer.write(await self._respond(request))
                await writer.drain()
                if not request.keep_alive or self._shutdown.is_set():
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(self, request: Request) -> bytes:
        close = not request.keep_alive or self._shutdown.is_set()
        path, _, query = request.path.partition("?")
        if path not in ("/healthz", "/metrics"):
            return await self._route(request, path, close)
        if request.method != "GET":
            return json_response(405, error_payload(
                "method_not_allowed", "use GET"), close=close)
        if path == "/healthz":
            status, document = self._health()
            return json_response(status, document, close=close)
        document = await self._metrics()
        if wants_prometheus(request.headers, query):
            return text_response(200, obs.document_to_exposition(document),
                                 obs.PROMETHEUS_CONTENT_TYPE, close=close)
        return json_response(200, document, close=close)

def serve_blocking(service: FrontEnd, on_started=None) -> int:
    """Run ``service`` in the foreground until SIGTERM/SIGINT, then drain
    it (the CLI entry point); see :meth:`FrontEnd.run`."""
    try:
        return asyncio.run(service.run(on_started))
    except KeyboardInterrupt:
        return 0

class ServiceThread:
    """A live :class:`FrontEnd` on a daemon thread with its own event
    loop: the harness the tests and the benchmarks drive real sockets
    through.  :meth:`start` returns once the listener is bound and
    :meth:`_until_ready` has returned; :meth:`stop` drains and joins."""

    def __init__(self, service: FrontEnd, start_timeout_s: float = 30.0,
                 stop_timeout_s: float = 30.0):
        self.service = service
        self._start_timeout_s = start_timeout_s
        self._stop_timeout_s = stop_timeout_s
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread = threading.Thread(target=self._main, daemon=True,
                                        name=f"{service.label}-thread")
        self._error: BaseException | None = None

    @property
    def port(self) -> int:
        assert self.service.port is not None
        return self.service.port

    async def _until_ready(self) -> None:
        """Hook: what must hold, once the listener is bound, before
        :meth:`start` returns."""

    def _main(self) -> None:
        try:
            asyncio.run(self._serve())
        except BaseException as err:  # surface startup failures to start()
            self._error = err
            self._ready.set()

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        await self.service.run(on_started=self._started)

    async def _started(self) -> None:
        await self._until_ready()
        self._ready.set()

    def start(self):
        self._thread.start()
        self._ready.wait(timeout=self._start_timeout_s)
        label = self.service.label
        if self._error is not None:
            raise RuntimeError(f"{label} failed to start") from self._error
        if self.service.port is None:
            raise RuntimeError(f"{label} did not come up within "
                               f"{self._start_timeout_s}s")
        return self

    def stop(self) -> None:
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.service.request_shutdown)
        self._thread.join(timeout=self._stop_timeout_s)

    def run_on_loop(self, coro, timeout_s: float = 30.0):
        """Run ``coro`` on the service's event loop (test hook)."""
        assert self._loop is not None
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        return future.result(timeout=timeout_s)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
