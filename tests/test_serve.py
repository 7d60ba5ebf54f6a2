"""The serving layer, end to end over real loopback sockets.

Covers the tentpole contracts: request/response for every verb and nest
shape, duplicate-request coalescing (the second identical request does
not recompute), queue-full 429 backpressure with ``Retry-After``,
request-size limits, per-request timeouts, structured error kinds, and
the graceful-shutdown drain (both in-process and as a real
``python -m repro serve`` child taking SIGTERM mid-flight).  Also: every
serving tier an older client may name is answered by the exact engine,
and the client's 429 backoff with and without a ``Retry-After`` hint.
"""

from __future__ import annotations

import asyncio
import functools
import http.client
import json
import os
import pathlib
import random
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro import api, obs
from repro.engine import AnalysisEngine
from repro.ir.printer import format_nest
from repro.kernels import kernel_by_name
from repro.serve import protocol
from repro.serve.batcher import BatchConfig, MicroBatcher, Overloaded
from repro.serve.client import Client, build_workload, run_load
from repro.serve.protocol import parse_request, ProtocolError
from repro.serve.server import (
    PARENT_ID_HEADER,
    TRACE_ID_HEADER,
    ServeConfig,
    ServerThread,
)

_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")

#: v1 JSON transport and no 429 retries, so every status reaches the test.
JsonClient = functools.partial(Client, transport="json", max_retries=0)

def _server(engine: AnalysisEngine | None = None,
            **kwargs) -> ServerThread:
    """A fresh server+engine on an ephemeral port."""
    config = ServeConfig(port=0, **kwargs)
    return ServerThread(config, engine or AnalysisEngine())

class _GatedEngine(AnalysisEngine):
    """An engine whose ``optimize`` blocks until :attr:`release` is set,
    so a test decides when a job finishes instead of racing a timer."""

    def __init__(self):
        super().__init__()
        self.release = threading.Event()
        self.started = threading.Semaphore(0)

    def optimize(self, *args, **kwargs):
        self.started.release()
        assert self.release.wait(timeout=30), "gate never released"
        return super().optimize(*args, **kwargs)

def _wait_until(predicate, timeout_s: float = 30.0) -> None:
    """Poll ``predicate`` until it holds; fail after ``timeout_s``."""
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)

def _accepts_connections(port: int) -> bool:
    try:
        socket.create_connection(("127.0.0.1", port), timeout=1).close()
    except OSError:
        return False
    return True

def _fire_optimize(port: int, name: str, results: list,
                   lock: threading.Lock) -> threading.Thread:
    def fire():
        client = JsonClient(port=port)
        outcome = client.optimize(name, bound=4)
        client.close()
        with lock:
            results.append(outcome)

    thread = threading.Thread(target=fire)
    thread.start()
    return thread

class TestEndToEnd:
    def test_optimize_matches_library(self):
        with _server() as handle:
            client = JsonClient(port=handle.port)
            status, doc = client.optimize("jacobi", bound=4)
            client.close()
        assert status == 200 and doc["ok"]
        expected = api.optimize("jacobi", "alpha", bound=4,
                                engine=AnalysisEngine())
        assert tuple(doc["unroll"]) == expected.unroll
        assert doc["feasible"] == expected.feasible
        assert doc["balance"] == pytest.approx(float(expected.balance))

    def test_all_nest_shapes_resolve(self):
        source = "DO J = 0, N\n  DO I = 0, M\n" \
                 "    A(I, J) = A(I, J) + B(I)\n  ENDDO\nENDDO"
        serialized = api.serialize_nest(api.coerce_nest("jacobi"))
        with _server() as handle:
            client = JsonClient(port=handle.port)
            by_name = client.optimize("jacobi", bound=3)
            by_source = client.optimize(source, bound=3)
            by_dict = client.optimize(serialized, bound=3)
            client.close()
        assert by_name[0] == by_source[0] == by_dict[0] == 200
        # The serialized twin shares the structural key (and the cache).
        assert by_dict[1]["structural_key"] == by_name[1]["structural_key"]
        assert by_dict[1]["unroll"] == by_name[1]["unroll"]

    def test_renamed_twins_get_their_own_answers(self):
        """Structural twins that differ in name and loop variables share
        the engine's memos, but every reply echoes its own request."""
        def spec(name, outer, inner):
            return {"name": name,
                    "source": f"DO {outer} = 1, N\n  DO {inner} = 1, N\n"
                              f"    A({outer}, {inner}) = "
                              f"A({outer}, {inner}) + B({inner})\n"
                              f"  ENDDO\nENDDO"}

        twins = [spec("first", "I", "J"), spec("second", "II", "JJ")]
        with _server() as handle:
            for transport in ("json", "binary"):
                client = Client(port=handle.port, transport=transport,
                                max_retries=0)
                for twin in twins:
                    status, doc = client.optimize(twin, bound=3)
                    assert status == 200, doc
                    assert doc["nest"] == twin["name"], (transport, doc)
                    status, doc = client.transform(twin, bound=3)
                    assert status == 200, doc
                    assert doc["nest"] == twin["name"], (transport, doc)
                    outer = twin["source"].split()[1]
                    assert f"DO {outer} = " in doc["source"], \
                        (transport, doc["source"])
                client.close()

    def test_analyze_and_transform_verbs(self):
        with _server() as handle:
            client = JsonClient(port=handle.port)
            a_status, analysis = client.analyze("jacobi")
            t_status, transformed = client.transform("jacobi", bound=4)
            e_status, explicit = client.transform("jacobi", unroll=[2, 0])
            client.close()
        assert a_status == 200 and analysis["kind"] == "analyze"
        assert analysis["depth"] == 2 and len(analysis["safety"]) == 2
        assert t_status == 200 and "DO" in transformed["source"]
        assert transformed["copies"] >= 1
        assert e_status == 200 and explicit["unroll"] == [2, 0]
        assert explicit["copies"] == 3

    def test_health_and_metrics_documents(self):
        with _server() as handle:
            client = JsonClient(port=handle.port)
            client.optimize("jacobi", bound=3)
            h_status, health = client.healthz()
            m_status, metrics = client.metrics()
            client.close()
        assert h_status == 200 and health["status"] == "ok"
        assert m_status == 200
        assert metrics["metrics"]["counters"]["serve.requests"] == 1
        stage = metrics["metrics"]["stages"]["stage.optimize"]
        for key in ("p50_s", "p95_s", "p99_s"):  # satellite: percentiles
            assert key in stage
        assert metrics["cache"]["memory"]["tables"] == 1

class TestErrors:
    def test_unknown_kernel_is_404(self):
        with _server() as handle:
            client = JsonClient(port=handle.port)
            status, doc = client.optimize("definitely-not-a-kernel")
            client.close()
        assert status == 404
        assert doc["error"]["type"] == "unknown_kernel"

    def test_server_side_path_is_404(self, tmp_path):
        """A string that is neither source nor a kernel name is never
        read as a server-side path, even when the file exists and holds
        a valid nest."""
        path = tmp_path / "jacobi.f"
        path.write_text(format_nest(kernel_by_name("jacobi").nest))
        with _server() as handle:
            client = JsonClient(port=handle.port)
            status, doc = client.analyze(str(path))
            client.close()
        assert status == 404
        assert doc["error"]["type"] == "unknown_kernel"

    def test_parse_error_is_400(self):
        with _server() as handle:
            client = JsonClient(port=handle.port)
            status, doc = client.optimize("DO I = 0, N\n  garbage(\nENDDO")
            bad_dict = client.optimize({"source": "DO broken"})
            client.close()
        assert status == 400 and doc["error"]["type"] == "parse_error"
        assert bad_dict[0] == 400
        assert bad_dict[1]["error"]["type"] == "parse_error"

    def test_malformed_requests(self):
        with _server() as handle:
            client = JsonClient(port=handle.port)
            no_nest = client.request("POST", "/v1/optimize", {})
            bad_machine = client.optimize("jacobi", machine="cray")
            bad_field = client.request("POST", "/v1/optimize",
                                       {"nest": "jacobi", "bogus": 1})
            bad_unroll = client.transform("jacobi", unroll=[-1, 0])
            wrong_method = client.request("GET", "/v1/optimize")
            no_route = client.request("GET", "/nope")
            raw = http.client.HTTPConnection("127.0.0.1", handle.port,
                                             timeout=10)
            raw.request("POST", "/v1/optimize", body=b"{not json",
                        headers={"content-type": "application/json"})
            not_json = raw.getresponse()
            not_json.read()
            raw.close()
            client.close()
        assert no_nest[0] == 400
        assert bad_machine[0] == 400
        assert bad_machine[1]["error"]["type"] == "unknown_machine"
        assert bad_field[0] == 400 and "bogus" in \
            bad_field[1]["error"]["message"]
        assert bad_unroll[0] == 400
        assert wrong_method[0] == 405
        assert no_route[0] == 404
        assert not_json.status == 400

    def test_oversized_body_is_413(self):
        with _server(max_body=256) as handle:
            client = JsonClient(port=handle.port)
            status, doc = client.optimize("DO I = 0, N\n"
                                          + "  A(I) = B(I) * 2\n" * 50
                                          + "ENDDO")
            client.close()
        assert status == 413
        assert doc["error"]["type"] == "payload_too_large"

    def test_request_timeout_is_504(self):
        # The engine call is held at the gate until the timeout has fired.
        engine = _GatedEngine()
        with _server(engine, request_timeout_s=0.005) as handle:
            client = JsonClient(port=handle.port)
            try:
                status, doc = client.optimize("mmjik", bound=8)
            finally:
                engine.release.set()
            client.close()
            assert status == 504 and doc["error"]["type"] == "timeout"
            assert handle.engine.metrics.counter("serve.timeouts") == 1

class TestCoalescing:
    def test_concurrent_duplicates_share_one_computation(self):
        # The first request's engine call is held at the gate, so both
        # twins arrive while it is in flight and attach to it.
        engine = _GatedEngine()
        with _server(engine) as handle:
            results: list[tuple[int, dict]] = []
            lock = threading.Lock()
            metrics = handle.engine.metrics
            try:
                threads = [_fire_optimize(handle.port, "jacobi", results,
                                          lock)]
                assert engine.started.acquire(timeout=30)
                threads += [_fire_optimize(handle.port, "jacobi", results,
                                           lock) for _ in range(2)]
                _wait_until(lambda: metrics.counter("serve.coalesced") == 2)
            finally:
                engine.release.set()
            for thread in threads:
                thread.join()
            # All three answered identically from ONE engine computation.
            assert metrics.counter("engine.optimize") == 1
            assert metrics.counter("serve.coalesced") == 2
            # A later identical request is a serve-side cache hit.
            client = JsonClient(port=handle.port)
            late = client.optimize("jacobi", bound=4)
            client.close()
            assert metrics.counter("engine.optimize") == 1
            assert metrics.counter("serve.cache.hit") == 1
        assert [status for status, _ in results] == [200, 200, 200]
        vectors = {tuple(doc["unroll"]) for _, doc in results}
        assert len(vectors) == 1 and tuple(late[1]["unroll"]) in vectors

    def test_admitted_job_starts_without_waiting(self):
        # One executor thread and two distinct jobs: the first starts on
        # admission (no window to wait out), the second is admitted and
        # waits for the thread.
        engine = _GatedEngine()
        with _server(engine, batch=BatchConfig(threads=1)) as handle:
            results: list[tuple[int, dict]] = []
            lock = threading.Lock()
            probe = JsonClient(port=handle.port)
            try:
                threads = [_fire_optimize(handle.port, "jacobi", results,
                                          lock)]
                assert engine.started.acquire(timeout=30)
                threads.append(_fire_optimize(handle.port, "sor", results,
                                              lock))
                _wait_until(lambda: probe.healthz()[1]["in_flight"] == 2)
                _, health = probe.healthz()
                assert health["in_flight"] == 2
                assert health["queue_depth"] == 1
            finally:
                engine.release.set()
            for thread in threads:
                thread.join()
            _, health = probe.healthz()
            probe.close()
            assert health["in_flight"] == health["queue_depth"] == 0
            assert engine.metrics.counter("engine.optimize") == 2
            waits = engine.metrics.snapshot()["stages"]["serve.queue_wait"]
            assert waits["count"] == 2
        assert sorted(status for status, _ in results) == [200, 200]

    def test_distinct_params_do_not_coalesce(self):
        with _server() as handle:
            client = JsonClient(port=handle.port)
            first = client.optimize("jacobi", bound=2)
            second = client.optimize("jacobi", bound=4)
            client.close()
            assert handle.engine.metrics.counter("serve.cache.hit") == 0
        assert first[0] == second[0] == 200

class TestSimdParam:
    def test_simd_report_matches_library(self):
        with _server() as handle:
            client = JsonClient(port=handle.port)
            status, doc = client.optimize("jacobi", machine="future",
                                          bound=4, simd=True)
            client.close()
        assert status == 200 and doc["ok"]
        result, report = api.vectorize("jacobi", machine="future", bound=4,
                                       engine=AnalysisEngine())
        assert tuple(doc["unroll"]) == result.unroll
        assert doc["simd"] == json.loads(json.dumps(report.to_dict()))

    def test_simd_and_plain_requests_have_distinct_keys(self):
        with _server() as handle:
            client = JsonClient(port=handle.port)
            _, plain = client.optimize("jacobi", machine="future", bound=4)
            _, simd = client.optimize("jacobi", machine="future", bound=4,
                                      simd=True)
            client.close()
            assert handle.engine.metrics.counter("serve.cache.hit") == 0
        assert "simd" not in plain
        assert "simd" in simd

class TestBackpressure:
    def test_queue_full_returns_429_with_retry_after(self):
        # One pending job at a time on a single worker thread: a burst
        # of distinct cold requests must overflow admission.
        batch = BatchConfig(queue_limit=1, threads=1)
        kernels = ["jacobi", "mmjik", "sor", "afold", "dmxpy1",
                   "vpenta.7", "gmtry.3", "btrix.1"]
        with _server(batch=batch) as handle:
            statuses: list[int] = []
            retry_after: list[str | None] = []
            lock = threading.Lock()

            def fire(name: str) -> None:
                conn = http.client.HTTPConnection("127.0.0.1", handle.port,
                                                  timeout=30)
                body = json.dumps({"nest": name, "bound": 4}).encode()
                conn.request("POST", "/v1/optimize", body=body)
                response = conn.getresponse()
                response.read()
                with lock:
                    statuses.append(response.status)
                    if response.status == 429:
                        retry_after.append(
                            response.getheader("Retry-After"))
                conn.close()

            threads = [threading.Thread(target=fire, args=(name,))
                       for name in kernels]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            # Overflow must have produced 429s, and the queue recovers.
            assert 429 in statuses
            assert statuses.count(200) >= 1
            assert set(statuses) <= {200, 429}
            assert all(value and int(value) >= 1 for value in retry_after)
            assert handle.engine.metrics.counter("serve.rejected") >= 1
            client = JsonClient(port=handle.port)
            recovered = client.optimize("jacobi", bound=4)
            client.close()
            assert recovered[0] == 200

    @pytest.mark.parametrize("means, queue_limit, threads, expected", [
        # Four pending jobs x a seeded 1.5 s mean optimize over two
        # threads: ceil(3.0) = 3 s.
        ([1.5, 1.5, 1.5], 4, 2, 3),
        # Nothing measured yet: never advise less than a second.
        ([], 1, 4, 1),
    ])
    def test_retry_after_from_measured_optimize_mean(self, means,
                                                     queue_limit, threads,
                                                     expected):
        engine = _GatedEngine()
        for seconds in means:
            engine.metrics.observe("stage.optimize", seconds)
        batcher = MicroBatcher(engine, BatchConfig(queue_limit=queue_limit,
                                                   threads=threads))
        nest = api.coerce_nest("jacobi")
        machine = api.coerce_machine("alpha")

        async def scenario() -> int:
            batcher.start()
            futures = [batcher.submit("optimize", ("key", n), nest, machine,
                                      {"bound": 2})
                       for n in range(queue_limit)]
            try:
                with pytest.raises(Overloaded) as err:
                    batcher.submit("optimize", ("key", queue_limit), nest,
                                   machine, {"bound": 2})
            finally:
                engine.release.set()
            await asyncio.gather(*futures)
            await batcher.stop()
            return err.value.retry_after_s

        assert asyncio.run(scenario()) == expected
        assert engine.metrics.counter("serve.rejected") == 1

    def test_load_generator_retries_429_honoring_retry_after(self):
        """The same overflow-prone server, driven through run_load:
        the generator's capped jittered backoff (seeded by the server's
        Retry-After) must convert shed requests into eventual 200s."""
        batch = BatchConfig(queue_limit=1, threads=1)
        kernels = ["jacobi", "mmjik", "sor", "afold", "dmxpy1",
                   "vpenta.7", "gmtry.3", "btrix.1"]
        with _server(batch=batch) as handle:
            stats = run_load("127.0.0.1", handle.port,
                             [("optimize", name) for name in kernels],
                             concurrency=len(kernels), max_retries=8,
                             backoff_cap_s=0.5, bound=4)
        # Shedding happened (else the scenario proves nothing), every
        # shed request was retried to completion, and per-endpoint
        # percentiles cover all completions.
        assert stats["retries"] >= 1
        assert handle.engine.metrics.counter("serve.rejected") >= 1
        assert stats["statuses"] == {"200": len(kernels)}
        assert stats["rate_2xx"] == 1.0
        endpoint = stats["latency_by_endpoint_s"]["optimize"]
        assert endpoint["count"] == len(kernels)
        assert 0.0 < endpoint["p50"] <= endpoint["p95"] <= endpoint["p99"]

    def test_client_exposes_response_headers(self):
        with _server() as handle:
            client = JsonClient(port=handle.port)
            status, _ = client.optimize("jacobi", bound=4)
            client.close()
        assert status == 200
        assert "content-type" in client.last_headers

class TestGracefulShutdown:
    def test_inprocess_drain_answers_all_accepted(self):
        # Every request is admitted and held at the gate before shutdown
        # starts; the drain must still answer each one.
        engine = _GatedEngine()
        handle = _server(engine).start()
        results: list[tuple[int, dict]] = []
        lock = threading.Lock()
        kernels = ["jacobi", "mmjik", "sor", "afold", "dmxpy1", "shal"]
        threads = [_fire_optimize(handle.port, name, results, lock)
                   for name in kernels]
        stopper = threading.Thread(target=handle.stop)
        try:
            _wait_until(lambda: engine.metrics.counter("serve.requests")
                        == len(kernels))
            stopper.start()  # request shutdown while work is in flight
            _wait_until(lambda: not _accepts_connections(handle.port))
        finally:
            engine.release.set()
        stopper.join(timeout=30)
        for thread in threads:
            thread.join(timeout=30)
        assert [status for status, _ in results] == [200] * len(kernels)

    def test_idle_keepalive_client_does_not_hold_the_drain(self):
        # One answered request on a connection the client keeps open:
        # the drain closes the parked connection instead of waiting out
        # the grace for it.
        handle = _server(shutdown_grace_s=5).start()
        conn = http.client.HTTPConnection("127.0.0.1", handle.port,
                                          timeout=10)
        try:
            body = json.dumps({"nest": "jacobi", "bound": 4}).encode()
            conn.request("POST", "/v1/optimize", body=body)
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("connection") == "keep-alive"
            response.read()
            started = time.monotonic()
            handle.stop()
            elapsed = time.monotonic() - started
        finally:
            conn.close()
        assert not handle._thread.is_alive()
        assert elapsed < 1.0, f"drain took {elapsed:.2f}s"

    def test_sigterm_child_drains_and_exits_zero(self, tmp_path):
        metrics_out = tmp_path / "final_metrics.json"
        env = dict(os.environ,
                   PYTHONPATH=_SRC + os.pathsep
                   + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--metrics-out", str(metrics_out)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            text=True)
        try:
            line = proc.stdout.readline()
            assert "listening on" in line, line
            port = int(line.rsplit(":", 1)[1])
            assert port > 0
            statuses: list[int] = []
            lock = threading.Lock()
            started = threading.Barrier(7)

            def fire(name: str) -> None:
                conn = http.client.HTTPConnection("127.0.0.1", port,
                                                  timeout=60)
                conn.connect()  # accepted before the SIGTERM below
                started.wait()
                body = json.dumps({"nest": name, "bound": 24}).encode()
                conn.request("POST", "/v1/optimize", body=body)
                response = conn.getresponse()
                doc = json.loads(response.read())
                with lock:
                    statuses.append(response.status)
                    assert doc.get("ok") is True, doc
                conn.close()

            # Depth-3 nests at bound 24 take 0.1-0.2 s each cold, so the
            # jobs seen in flight below are still running at the SIGTERM.
            kernels = ["btrix.1", "btrix.2", "btrix.7", "mmjik", "mmjki",
                       "shal"]
            threads = [threading.Thread(target=fire, args=(name,))
                       for name in kernels]
            for thread in threads:
                thread.start()
            started.wait()  # all connections established, requests going out
            probe = JsonClient(port=port)
            _wait_until(lambda: probe.healthz()[1]["in_flight"] > 0)
            probe.close()
            proc.send_signal(signal.SIGTERM)
            for thread in threads:
                thread.join(timeout=60)
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        # Every accepted request was answered, and the exit was clean.
        assert statuses == [200] * len(kernels)
        assert code == 0
        flushed = json.loads(metrics_out.read_text())
        assert flushed["metrics"]["counters"]["serve.requests"] == \
            len(kernels)

class TestRequestTracing:
    """Both encodings open one ``serve.request`` span that adopts the
    router's trace headers, and the engine work nests under it."""

    @pytest.fixture
    def tracer(self):
        fresh = obs.Tracer(enabled=True)
        previous = obs.set_tracer(fresh)
        try:
            yield fresh
        finally:
            obs.set_tracer(previous)

    @pytest.mark.parametrize("path", ["/v1/optimize", "/v2/frame"])
    def test_request_span_adopts_remote_trace(self, tracer, path):
        nest = kernel_by_name("jacobi").nest
        doc = {"nest": api.serialize_nest(nest), "bound": 3}
        if path == "/v2/frame":
            body = protocol.encode_request_frame(
                "optimize", doc, key=nest.structural_key())
            content_type = protocol.CONTENT_TYPE_FRAME
        else:
            body = json.dumps(doc).encode()
            content_type = "application/json"
        with _server() as handle:
            conn = http.client.HTTPConnection("127.0.0.1", handle.port,
                                              timeout=30)
            conn.request("POST", path, body=body, headers={
                "content-type": content_type,
                TRACE_ID_HEADER: "feedc0de", PARENT_ID_HEADER: "router-1"})
            response = conn.getresponse()
            response.read()
            conn.close()
        assert response.status == 200
        [request] = [s for s in tracer.spans() if s.name == "serve.request"]
        assert (request.trace_id, request.parent_id) == \
            ("feedc0de", "router-1")
        assert request.attrs["path"] == path
        [execute] = [s for s in tracer.spans() if s.name == "serve.execute"]
        assert execute.trace_id == "feedc0de"
        assert execute.parent_id == request.span_id

class TestProtocolUnits:
    def test_parse_request_validates(self):
        spec = parse_request("optimize",
                             json.dumps({"nest": "jacobi", "bound": 3,
                                         "machine": "pa"}).encode())
        assert spec.kind == "optimize" and spec.machine == "pa"
        assert spec.params == {"bound": 3}
        with pytest.raises(ProtocolError) as err:
            parse_request("optimize", b"[1, 2]")
        assert err.value.status == 400
        with pytest.raises(ProtocolError):
            parse_request("optimize", json.dumps({"nest": "x",
                                                  "bound": "big"}).encode())
        with pytest.raises(ProtocolError) as err:
            parse_request("explode", b"{}")
        assert err.value.status == 404

    def test_workload_builder_duplicate_fraction(self):
        workload = build_workload(38, duplicate_fraction=0.5)
        names = [nest for _, nest in workload]
        assert len(workload) == 38 and len(set(names)) == 19

class TestLoadGenerator:
    def test_run_load_reports_stats(self):
        with _server() as handle:
            stats = run_load("127.0.0.1", handle.port,
                             build_workload(12, duplicate_fraction=0.5),
                             concurrency=4, bound=3)
        assert stats["completed"] == 12
        assert stats["rate_2xx"] == 1.0
        assert stats["throughput_rps"] > 0
        assert 0 < stats["latency_s"]["p50"] <= stats["latency_s"]["max"]

class TestServeTiers:
    """``tier`` still parses in both encodings (older clients send it),
    and the exact engine answers every tier."""

    def test_fast_tier_is_answered_exactly(self):
        with _server() as handle:
            client = JsonClient(port=handle.port)
            status, doc = client.optimize("jacobi", tier="fast")
            _h, health = client.healthz()
            client.close()
        assert status == 200 and doc["tier"] == "exact"
        assert "confidence" not in doc
        assert health["tiers"] == {"supported": ["exact"], "model": None,
                                   "auto_confidence": None}

    def test_exact_tier_is_echoed(self):
        with _server() as handle:
            client = JsonClient(port=handle.port)
            status, doc = client.optimize("jacobi", bound=4,
                                          tier="exact")
            plain = client.optimize("afold", bound=4)
            client.close()
        assert status == 200 and doc["tier"] == "exact"
        assert "confidence" not in doc
        assert "tier" not in plain[1]  # tier-less stays frozen-v1 shaped

    def test_every_tier_and_transport_gives_one_answer(self):
        answers = {}
        with _server() as handle:
            for transport in ("json", "binary"):
                client = Client(port=handle.port, transport=transport,
                                max_retries=0)
                for tier in ("fast", "auto", "exact"):
                    status, doc = client.optimize("jacobi", tier=tier)
                    assert status == 200 and doc["tier"] == "exact", \
                        (transport, tier, doc)
                    answers[transport, tier] = (
                        doc["unroll"], doc["balance"], doc["candidates"])
                client.close()
        assert len(answers) == 6
        assert all(answer == answers["json", "exact"]
                   for answer in answers.values()), answers

# -- client 429 backoff -------------------------------------------------------

class _Scripted429Client(Client):
    """A Client whose transport is a canned status script -- isolates
    the retry/backoff loop in ``call`` from any socket."""

    def __init__(self, statuses: list[int], headers: dict | None = None,
                 **kwargs):
        super().__init__(port=1, **kwargs)
        self._script = list(statuses)
        self._canned_headers = dict(headers or {})

    def _call_once(self, kind, nest, machine, params):
        self.last_headers = dict(self._canned_headers)
        status = self._script.pop(0) if self._script else 200
        return status, {"ok": status == 200, "status": status}

@pytest.fixture()
def record_sleep(monkeypatch):
    slept: list[float] = []
    monkeypatch.setattr(time, "sleep", slept.append)
    monkeypatch.setattr(random, "random", lambda: 1.0)  # jitter -> 1.0x
    return slept

class TestClientBackoff:
    def test_default_backoff_without_retry_after(self, record_sleep):
        """No Retry-After header: capped exponential from
        ``backoff_base_s``, doubling per retry."""
        client = _Scripted429Client([429, 429, 429, 200],
                                    backoff_base_s=0.05,
                                    backoff_cap_s=2.0)
        status, doc = client.optimize("jacobi")
        assert status == 200 and doc["ok"]
        assert client.last_retries == 3
        assert record_sleep == pytest.approx([0.05, 0.10, 0.20])

    def test_default_backoff_hits_the_cap(self, record_sleep):
        client = _Scripted429Client([429] * 4 + [200],
                                    backoff_base_s=0.6,
                                    backoff_cap_s=1.0)
        status, _doc = client.optimize("jacobi")
        assert status == 200
        # 0.6, 1.2->cap, 2.4->cap, 4.8->cap
        assert record_sleep == pytest.approx([0.6, 1.0, 1.0, 1.0])

    def test_retry_after_hint_wins(self, record_sleep):
        client = _Scripted429Client([429, 429, 200],
                                    headers={"retry-after": "0.25"},
                                    backoff_base_s=0.05)
        status, _doc = client.optimize("jacobi")
        assert status == 200
        assert record_sleep == pytest.approx([0.25, 0.25])

    def test_retry_after_hint_is_capped_too(self, record_sleep):
        client = _Scripted429Client([429, 200],
                                    headers={"retry-after": "30"},
                                    backoff_cap_s=2.0)
        status, _doc = client.optimize("jacobi")
        assert status == 200
        assert record_sleep == pytest.approx([2.0])

    def test_jitter_spans_half_to_full(self, monkeypatch):
        slept: list[float] = []
        monkeypatch.setattr(time, "sleep", slept.append)
        monkeypatch.setattr(random, "random", lambda: 0.0)
        client = _Scripted429Client([429, 200], backoff_base_s=0.2)
        client.optimize("jacobi")
        assert slept == pytest.approx([0.1])  # 0.2 * (0.5 + 0.5*0)

    def test_retry_budget_exhausts(self, record_sleep):
        client = _Scripted429Client([429] * 10, max_retries=2)
        status, doc = client.optimize("jacobi")
        assert status == 429 and not doc["ok"]
        assert client.last_retries == 2
        assert len(record_sleep) == 2
