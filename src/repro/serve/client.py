"""The serving stack's client: one class, two transports, polite backoff.

:class:`Client` is the redesigned surface -- ``analyze`` / ``optimize``
/ ``transform`` verbs over a keep-alive ``http.client`` connection
(stdlib only, like the server), with:

* **transport negotiation** -- ``transport="auto"`` (the default) probes
  ``/healthz`` once and speaks the binary frame encoding
  (``POST /v2/frame``, see docs/WIRE.md) when the server advertises wire
  v2, falling back to v1 JSON against older servers; ``"json"`` and
  ``"binary"`` pin the choice;
* **near-free keys** -- on the binary transport the nest is coerced
  once, its cached structural key rides in the frame header (so the
  cluster router routes without parsing the body), and the encoded
  request bytes are cached per spec, so repeats cost a dict hit plus a
  socket write;
* **Retry-After-aware backoff** -- 429 responses are retried with the
  jittered, capped backoff that used to live in the load generator (the
  polite half of the admission-control contract), shared by every verb.

:func:`run_load` / :func:`build_workload` / :func:`wait_for_server`
drive workloads for ``benchmarks/bench_serve_throughput.py`` and the CI
smoke job::

    python -m repro.serve.client --port 8787 --requests 100 \\
        --concurrency 8 --duplicates 0.5 --min-2xx 0.99 --json out.json
"""

from __future__ import annotations

import argparse
import http.client
import json
import pathlib
import queue
import random
import socket
import sys
import threading
import time

from repro.engine.memo import Memo

__all__ = ["Client", "build_workload", "run_load", "wait_for_server",
           "main"]

TRANSPORTS = ("auto", "json", "binary")

def _retry_after_s(headers: dict) -> float | None:
    """The ``Retry-After`` delay in seconds, or ``None`` when absent or
    unparseable (only delta-seconds form is produced by this service)."""
    value = headers.get("retry-after")
    if value is None:
        return None
    try:
        return max(0.0, float(value))
    except ValueError:
        return None

def _freeze(value):
    """A hashable stand-in for a JSON-shaped value (request-cache keys)."""
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value

class _RawConnection:
    """A keep-alive socket speaking just enough HTTP/1.1 for the binary
    data plane.

    ``http.client`` costs more per exchange than the entire server-side
    frame fast path; this lane writes one pre-assembled request and
    parses status, headers, and a ``content-length`` body -- all this
    service ever sends -- so client overhead stays proportionate to the
    frames it carries.
    """

    def __init__(self, host: str, port: int, timeout: float):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self._buffer = b""

    def _connect(self) -> socket.socket:
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout)
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._buffer = b""
        return self._sock

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
        self._buffer = b""

    def _read_until(self, sock: socket.socket,
                    marker: bytes) -> bytes:
        while marker not in self._buffer:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self._buffer += chunk
        head, _, self._buffer = self._buffer.partition(marker)
        return head

    def _read_exactly(self, sock: socket.socket, count: int) -> bytes:
        while len(self._buffer) < count:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self._buffer += chunk
        body, self._buffer = self._buffer[:count], self._buffer[count:]
        return body

    def exchange(self, path: str, body: bytes,
                 content_type: str) -> tuple[int, dict, bytes]:
        sock = self._connect()
        sock.sendall(
            (f"POST {path} HTTP/1.1\r\n"
             f"host: {self.host}\r\n"
             f"content-type: {content_type}\r\n"
             f"content-length: {len(body)}\r\n\r\n").encode("latin-1")
            + body)
        head = self._read_until(sock, b"\r\n\r\n").decode("latin-1")
        lines = head.split("\r\n")
        try:
            status = int(lines[0].split()[1])
        except (IndexError, ValueError):
            raise ConnectionError(f"malformed status line {lines[0]!r}") \
                from None
        headers: dict[str, str] = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        raw = self._read_exactly(sock,
                                 int(headers.get("content-length", "0")))
        if headers.get("connection", "keep-alive").lower() == "close":
            self.close()
        return status, headers, raw

class Client:
    """One keep-alive connection to a repro-serve instance (or a cluster
    router); reconnects transparently on failure.

    Every verb returns ``(status, decoded body)`` regardless of the
    transport in use, so callers never see the encoding.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8787,
                 timeout: float = 60.0, transport: str = "auto",
                 max_retries: int = 4, backoff_base_s: float = 0.05,
                 backoff_cap_s: float = 2.0):
        if transport not in TRANSPORTS:
            raise ValueError(f"transport must be one of {TRANSPORTS}")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.transport = transport
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self._conn: http.client.HTTPConnection | None = None
        self._raw: _RawConnection | None = None
        self._use_frames: bool | None = None  # resolved on first verb
        self._encoded = Memo("client_frame", 4096)
        #: Response headers of the last exchange (lower-cased names) --
        #: where ``Retry-After`` and ``x-repro-shard`` are found.
        self.last_headers: dict[str, str] = {}
        #: 429-retry count and final-attempt latency of the last verb
        #: call (what the load generator aggregates).
        self.last_retries = 0
        self.last_attempt_s = 0.0

    # -- plumbing ------------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None
        if self._raw is not None:
            self._raw.close()
            self._raw = None

    def _exchange_frame(self, encoded: bytes,
                        content_type: str) -> tuple[int, bytes]:
        """One binary exchange on the raw keep-alive lane (one
        transparent reconnect, like the JSON lane)."""
        if self._raw is None:
            self._raw = _RawConnection(self.host, self.port, self.timeout)
        for attempt in (1, 2):
            try:
                status, headers, raw = self._raw.exchange(
                    "/v2/frame", encoded, content_type)
                break
            except (ConnectionError, OSError):
                self._raw.close()
                if attempt == 2:
                    raise
        self.last_headers = headers
        return status, raw

    def _exchange(self, method: str, path: str, body: bytes | None,
                  content_type: str | None) -> tuple[int, bytes]:
        headers = {"content-type": content_type} if body else {}
        for attempt in (1, 2):  # one transparent reconnect
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                raw = response.read()
                break
            except (ConnectionError, http.client.HTTPException, OSError):
                self.close()
                if attempt == 2:
                    raise
        self.last_headers = {name.lower(): value
                             for name, value in response.getheaders()}
        return response.status, raw

    def request(self, method: str, path: str,
                payload: dict | None = None) -> tuple[int, dict]:
        """One JSON exchange; returns ``(status, decoded-JSON body)``."""
        body = json.dumps(payload).encode("utf-8") if payload is not None \
            else None
        status, raw = self._exchange(method, path, body, "application/json")
        try:
            doc = json.loads(raw.decode("utf-8")) if raw else {}
        except json.JSONDecodeError:
            doc = {"ok": False, "raw": raw.decode("latin-1")}
        return status, doc

    # -- transport negotiation -----------------------------------------------

    def _frames_enabled(self) -> bool:
        if self._use_frames is None:
            if self.transport == "json":
                self._use_frames = False
            elif self.transport == "binary":
                self._use_frames = True
            else:
                from repro.serve.protocol import WIRE_VERSION

                try:
                    status, doc = self.healthz()
                    versions = (doc.get("wire") or {}).get("versions") or []
                    self._use_frames = status == 200 and \
                        WIRE_VERSION in versions
                except (OSError, http.client.HTTPException):
                    self._use_frames = False
        return self._use_frames

    def _encode_frame(self, kind: str, nest, machine: str | None,
                      params: dict) -> bytes | None:
        """The cached binary request bytes for one spec, or ``None`` when
        the nest cannot be resolved locally (the JSON path then carries
        it so the server's diagnosis reaches the caller unchanged)."""
        from repro import api
        from repro.serve import protocol

        # Key the cache on the caller's own spelling of the spec, so a
        # repeat costs one dict probe -- no parse, no hash, no encode.
        try:
            cache_key = (kind, machine, _freeze(nest), _freeze(params))
        except TypeError:
            cache_key = None
        if cache_key is not None:
            encoded = self._encoded.get(cache_key)
            if encoded is not None:
                return encoded
        try:
            resolved = api.coerce_nest(nest)
        except api.NestResolutionError:
            return None
        doc = dict(params, nest=api.serialize_nest(resolved))
        encoded = protocol.encode_request_frame(
            kind, doc, key=resolved.structural_key(), machine=machine)
        if cache_key is not None:
            self._encoded.put(cache_key, encoded)
        return encoded

    # -- the verbs -----------------------------------------------------------

    def healthz(self) -> tuple[int, dict]:
        return self.request("GET", "/healthz")

    def metrics(self) -> tuple[int, dict]:
        return self.request("GET", "/metrics")

    def analyze(self, nest, machine: str | None = None,
                **params) -> tuple[int, dict]:
        return self.call("analyze", nest, machine, params)

    def optimize(self, nest, machine: str | None = None,
                 **params) -> tuple[int, dict]:
        return self.call("optimize", nest, machine, params)

    def transform(self, nest, machine: str | None = None,
                  unroll=None, **params) -> tuple[int, dict]:
        if unroll is not None:
            params["unroll"] = list(unroll)
        return self.call("transform", nest, machine, params)

    def call(self, kind: str, nest, machine: str | None,
             params: dict) -> tuple[int, dict]:
        """One API verb with an explicit params dict, with the built-in
        429 backoff: the server's ``Retry-After`` hint when given, else
        exponential ``backoff_base_s * 2^k``, capped at
        ``backoff_cap_s`` and jittered to half-to-full delay so
        concurrent clients never retry in lockstep against the very
        admission queue that shed them."""
        self.last_retries = 0
        while True:
            t0 = time.monotonic()
            status, doc = self._call_once(kind, nest, machine, params)
            self.last_attempt_s = time.monotonic() - t0
            if status != 429 or self.last_retries >= self.max_retries:
                return status, doc
            self.last_retries += 1
            hint = _retry_after_s(self.last_headers)
            delay = hint if hint is not None \
                else self.backoff_base_s * (2 ** (self.last_retries - 1))
            delay = min(self.backoff_cap_s, delay)
            time.sleep(delay * (0.5 + 0.5 * random.random()))

    def _call_once(self, kind: str, nest, machine: str | None,
                   params: dict) -> tuple[int, dict]:
        if self._frames_enabled():
            encoded = self._encode_frame(kind, nest, machine, params)
            if encoded is not None:
                from repro.serve import protocol

                status, raw = self._exchange_frame(
                    encoded, protocol.CONTENT_TYPE_FRAME)
                content_type = self.last_headers.get("content-type", "")
                if content_type.startswith(protocol.CONTENT_TYPE_FRAME):
                    try:
                        _, payload = protocol.decode_frame(raw)
                        return status, payload
                    except protocol.ProtocolError:
                        return status, {"ok": False,
                                        "raw": raw.decode("latin-1")}
                try:
                    return status, json.loads(raw.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    return status, {"ok": False,
                                    "raw": raw.decode("latin-1")}
        payload = {"nest": nest, **params}
        if machine is not None:
            payload["machine"] = machine
        return self.request("POST", f"/v1/{kind}", payload)

def wait_for_server(host: str, port: int, timeout_s: float = 15.0) -> bool:
    """Poll ``/healthz`` until the server answers or the budget runs out."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        client = Client(host, port, timeout=2.0)
        try:
            status, _ = client.healthz()
            if status == 200:
                return True
        except OSError:
            pass
        finally:
            client.close()
        time.sleep(0.1)
    return False

# -- the load generator -------------------------------------------------------

def _percentile(sorted_values: list[float], q: float) -> float:
    """Exact sample quantile (nearest-rank) of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      round(q * len(sorted_values)) - 1))
    return sorted_values[rank]

def build_workload(n_requests: int, duplicate_fraction: float = 0.5,
                   kinds: tuple[str, ...] = ("optimize",),
                   nests: list | None = None) -> list[tuple[str, object]]:
    """``n_requests`` specs of which roughly ``duplicate_fraction`` repeat
    an earlier nest (round-robin over the Table 2 kernels by default)."""
    if nests is None:
        from repro.kernels import all_kernels

        nests = [kernel.name for kernel in all_kernels()]
    unique_budget = max(1, min(len(nests),
                               round(n_requests * (1 - duplicate_fraction))))
    pool = nests[:unique_budget]
    return [(kinds[i % len(kinds)], pool[i % len(pool)])
            for i in range(n_requests)]

def run_load(host: str, port: int, workload: list[tuple[str, object]],
             concurrency: int = 8, machine: str = "alpha",
             max_retries: int = 4, backoff_base_s: float = 0.05,
             backoff_cap_s: float = 2.0, transport: str = "auto",
             **params) -> dict:
    """Fire the workload from ``concurrency`` threads; returns the stats
    document (throughput, latency percentiles overall and per endpoint,
    status mix, retries, failures).

    Each thread drives one :class:`Client` on the requested transport;
    429 handling is the client's built-in Retry-After-aware backoff, and
    the recorded latency of a retried request is its final attempt (the
    deliberate sleeps are the client's, not the server's).
    """
    jobs: queue.Queue = queue.Queue()
    for index, item in enumerate(workload):
        jobs.put((index, item))
    lock = threading.Lock()
    latencies: list[float] = []
    by_endpoint: dict[str, list[float]] = {}
    statuses: dict[int, int] = {}
    failures: list[str] = []
    retries = [0]

    def worker() -> None:
        client = Client(host, port, transport=transport,
                        max_retries=max_retries,
                        backoff_base_s=backoff_base_s,
                        backoff_cap_s=backoff_cap_s)
        while True:
            try:
                _, (kind, nest) = jobs.get_nowait()
            except queue.Empty:
                break
            try:
                status, doc = client.call(kind, nest, machine, dict(params))
            except (OSError, http.client.HTTPException) as err:
                with lock:
                    failures.append(f"{kind} {nest!r}: "
                                    f"{type(err).__name__}: {err}")
                continue
            with lock:
                retries[0] += client.last_retries
                latencies.append(client.last_attempt_s)
                by_endpoint.setdefault(kind, []).append(
                    client.last_attempt_s)
                statuses[status] = statuses.get(status, 0) + 1
                if status >= 400:
                    failures.append(f"{kind} {nest!r}: HTTP {status} "
                                    f"{doc.get('error')}")
        client.close()

    threads = [threading.Thread(target=worker, daemon=True)
               for _ in range(max(1, concurrency))]
    t_start = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.monotonic() - t_start

    completed = len(latencies)
    ok_2xx = sum(count for status, count in statuses.items()
                 if 200 <= status < 300)
    latencies.sort()

    def _summary(samples: list[float]) -> dict:
        samples.sort()
        return {
            "count": len(samples),
            "p50": _percentile(samples, 0.50),
            "p95": _percentile(samples, 0.95),
            "p99": _percentile(samples, 0.99),
            "max": samples[-1] if samples else 0.0,
        }

    return {
        "requests": len(workload),
        "completed": completed,
        "concurrency": concurrency,
        "transport": transport,
        "wall_time_s": wall,
        "throughput_rps": completed / wall if wall else 0.0,
        "rate_2xx": ok_2xx / len(workload) if workload else 0.0,
        "retries": retries[0],
        "statuses": {str(status): count
                     for status, count in sorted(statuses.items())},
        "latency_s": {
            "p50": _percentile(latencies, 0.50),
            "p95": _percentile(latencies, 0.95),
            "p99": _percentile(latencies, 0.99),
            "max": latencies[-1] if latencies else 0.0,
        },
        "latency_by_endpoint_s": {kind: _summary(samples)
                                  for kind, samples
                                  in sorted(by_endpoint.items())},
        "failures": failures[:20],
    }

# -- CLI (the CI smoke job) ---------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="load-generate against a repro-serve instance")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8787)
    parser.add_argument("--requests", type=int, default=80)
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument("--duplicates", type=float, default=0.5,
                        help="fraction of requests repeating an earlier "
                             "nest (default 0.5)")
    parser.add_argument("--machine", default="alpha")
    parser.add_argument("--bound", type=int, default=4)
    parser.add_argument("--kinds", default="optimize",
                        help="comma-separated verbs to mix (default "
                             "optimize)")
    parser.add_argument("--transport", default="auto", choices=TRANSPORTS,
                        help="wire encoding: negotiate (auto), v1 JSON, "
                             "or v2 binary frames")
    parser.add_argument("--wait", type=float, default=15.0,
                        help="seconds to wait for /healthz before loading")
    parser.add_argument("--max-retries", type=int, default=4,
                        help="retry budget per request for 429 responses")
    parser.add_argument("--backoff-cap", type=float, default=2.0,
                        help="upper bound in seconds on the 429 backoff")
    parser.add_argument("--min-2xx", type=float, default=0.0,
                        help="fail (exit 1) when the 2xx rate drops below "
                             "this")
    parser.add_argument("--json", default=None,
                        help="write the stats document here")
    args = parser.parse_args(argv)

    if not wait_for_server(args.host, args.port, args.wait):
        print(f"server at {args.host}:{args.port} never became healthy",
              file=sys.stderr)
        return 2
    workload = build_workload(args.requests, args.duplicates,
                              kinds=tuple(args.kinds.split(",")))
    stats = run_load(args.host, args.port, workload,
                     concurrency=args.concurrency, machine=args.machine,
                     max_retries=args.max_retries,
                     backoff_cap_s=args.backoff_cap,
                     transport=args.transport, bound=args.bound)
    probe = Client(args.host, args.port)
    try:
        _, stats["server_metrics"] = probe.metrics()
    except (OSError, http.client.HTTPException):
        stats["server_metrics"] = None
    finally:
        probe.close()

    print(f"{stats['completed']}/{stats['requests']} completed, "
          f"{100 * stats['rate_2xx']:.1f}% 2xx, "
          f"{stats['retries']} retried, "
          f"{stats['throughput_rps']:.1f} req/s, "
          f"p50 {1000 * stats['latency_s']['p50']:.1f}ms "
          f"p99 {1000 * stats['latency_s']['p99']:.1f}ms")
    for kind, summary in stats["latency_by_endpoint_s"].items():
        print(f"  {kind}: n={summary['count']} "
              f"p50 {1000 * summary['p50']:.1f}ms "
              f"p95 {1000 * summary['p95']:.1f}ms "
              f"p99 {1000 * summary['p99']:.1f}ms")
    for failure in stats["failures"]:
        print(f"  failure: {failure}", file=sys.stderr)
    if args.json:
        path = pathlib.Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(stats, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    if stats["rate_2xx"] < args.min_2xx:
        print(f"2xx rate {stats['rate_2xx']:.3f} below required "
              f"{args.min_2xx}", file=sys.stderr)
        return 1
    return 0

if __name__ == "__main__":
    sys.exit(main())
