"""Router behavior against fake in-process workers (no subprocesses).

Covers the routing contracts of docs/CLUSTER.md: sticky structural-key
routing of identical nests, least-pending fallback for unparseable
bodies, failover re-route when the owning worker dies mid-request,
503-with-Retry-After when no worker is READY, and 502 when every
candidate fails.  The workers here are tiny asyncio HTTP servers living
on the test's own event loop, so each scenario is exact and fast.
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import tempfile

from repro.cluster.membership import DRAINING, READY
from repro.cluster.router import ClusterRouter, SHARD_HEADER
from repro.cluster.supervisor import ClusterConfig
from repro.ir.printer import format_nest
from repro.kernels import kernel_by_name
from repro.serve.http import Request

class FakeWorker:
    """A minimal keep-alive HTTP worker that echoes its shard id.

    ``mode='hang-up'`` accepts the request and closes the connection
    without answering -- a worker dying mid-request.
    """

    def __init__(self, slot: int, mode: str = "ok"):
        self.slot = slot
        self.mode = mode
        self.requests = 0
        self.server: asyncio.AbstractServer | None = None
        self.port: int | None = None

    async def start(self) -> "FakeWorker":
        self.server = await asyncio.start_server(self._handle,
                                                 "127.0.0.1", 0)
        self.port = self.server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        if self.server is not None:
            self.server.close()
            await self.server.wait_closed()

    async def _handle(self, reader, writer) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line or not line.strip():
                    break
                headers = {}
                while True:
                    header = await reader.readline()
                    if header in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = header.decode().partition(":")
                    headers[name.strip().lower()] = value.strip()
                length = int(headers.get("content-length", "0"))
                if length:
                    await reader.readexactly(length)
                self.requests += 1
                if self.mode == "hang-up":
                    break
                body = json.dumps({"ok": True, "shard": self.slot,
                                   "trace": headers.get(
                                       "x-repro-trace-id")}).encode()
                writer.write(
                    b"HTTP/1.1 200 OK\r\n"
                    b"content-type: application/json\r\n"
                    b"content-length: " + str(len(body)).encode() +
                    b"\r\nconnection: keep-alive\r\n\r\n" + body)
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()

def make_router(**overrides) -> ClusterRouter:
    config = ClusterConfig(workers=0, probe_timeout_s=2.0, **overrides)
    return ClusterRouter(config)

async def enroll(router: ClusterRouter, worker: FakeWorker,
                 state: str = READY) -> None:
    info = router.membership.transition(worker.slot, state)
    info.port = worker.port

def post(kind: str, payload: dict | bytes) -> Request:
    body = payload if isinstance(payload, bytes) \
        else json.dumps(payload).encode()
    return Request("POST", f"/v1/{kind}", {}, body, keep_alive=True)

def parse(raw: bytes) -> tuple[int, dict, dict]:
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode().split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, json.loads(body) if body else {}

class TestRouting:
    def test_identical_nests_stick_to_one_worker(self):
        async def scenario():
            router = make_router()
            workers = [await FakeWorker(slot).start() for slot in range(3)]
            for worker in workers:
                await enroll(router, worker)
            shards = set()
            for _ in range(6):
                raw = await router._respond(post("optimize",
                                                 {"nest": "mmjik"}))
                status, headers, doc = parse(raw)
                assert status == 200 and doc["ok"]
                shards.add(headers[SHARD_HEADER])
            # ...while a different nest may land elsewhere, the same
            # nest never moves.
            assert len(shards) == 1
            for worker in workers:
                await worker.stop()

        asyncio.run(scenario())

    def test_structural_key_ignores_machine_and_params(self):
        async def scenario():
            router = make_router()
            for machine in ("alpha", "pa"):
                for bound in (2, 5):
                    key = router.structural_key(json.dumps(
                        {"nest": "mmjik", "machine": machine,
                         "bound": bound}).encode())
                    assert key == router.structural_key(
                        json.dumps({"nest": "mmjik"}).encode())

        asyncio.run(scenario())

    def test_key_cache_is_bounded_and_reused(self):
        async def scenario():
            router = make_router(key_cache=4)
            body = json.dumps({"nest": "mmjik"}).encode()
            first = router.structural_key(body)
            assert router.structural_key(body) == first
            assert len(router._keys) == 1
            for index in range(10):  # unknown kernels cache None too
                router.structural_key(
                    json.dumps({"nest": f"nope-{index}"}).encode())
            assert len(router._keys) <= 4

        asyncio.run(scenario())

    def test_key_cache_zero_disables_the_key_memo(self):
        async def scenario():
            router = make_router(key_cache=0)
            assert router._keys is None
            body = json.dumps({"nest": "mmjik"}).encode()
            assert router.structural_key(body) == router.structural_key(body)
            assert router.structural_key(body) is not None

        asyncio.run(scenario())

    def test_structural_key_never_reads_a_path(self, tmp_path):
        """A nest file on the router's host is not a nest spec: the body
        gets no key and falls back to a worker, which answers 404."""
        path = tmp_path / "jacobi.f"
        path.write_text(format_nest(kernel_by_name("jacobi").nest))
        async def scenario():
            router = make_router()
            assert router.structural_key(
                json.dumps({"nest": str(path)}).encode()) is None

        asyncio.run(scenario())

    def test_unparseable_body_falls_back_to_least_pending(self):
        async def scenario():
            router = make_router()
            workers = [await FakeWorker(slot).start() for slot in range(2)]
            for worker in workers:
                await enroll(router, worker)
            router.membership.workers[0].pending = 7  # slot 1 is idle
            raw = await router._respond(post("optimize", b"this is not json"))
            status, headers, _ = parse(raw)
            assert status == 200
            assert headers[SHARD_HEADER] == "1"
            assert router.metrics.counter("cluster.routed_fallback") == 1
            for worker in workers:
                await worker.stop()

        asyncio.run(scenario())

    def test_failover_when_owner_dies_mid_request(self):
        async def scenario():
            router = make_router()
            good = await FakeWorker(0).start()
            bad = await FakeWorker(1, mode="hang-up").start()
            await enroll(router, good)
            await enroll(router, bad)
            # Find a nest the ring assigns to the hang-up worker so the
            # first attempt really dies mid-request.
            kernel = None
            for name in ("mmjik", "mmjki", "jacobi", "sor", "afold",
                         "dmxpy0", "dmxpy1", "shal", "gmtry.3"):
                key = router.structural_key(
                    json.dumps({"nest": name}).encode())
                if router.membership.ring.lookup(key) == "w1":
                    kernel = name
                    break
            assert kernel is not None
            raw = await router._respond(post("optimize", {"nest": kernel}))
            status, headers, doc = parse(raw)
            assert status == 200 and doc["shard"] == 0
            assert headers[SHARD_HEADER] == "0"
            assert bad.requests == 1  # it really was tried first
            assert router.metrics.counter("cluster.failovers") == 1
            # The supervisor is asked to re-probe the suspect quickly.
            assert router.supervisor._probe_misses.get(1, 0) >= 1
            await good.stop()
            await bad.stop()

        asyncio.run(scenario())

    def test_503_with_retry_after_when_all_draining(self):
        async def scenario():
            router = make_router()
            worker = await FakeWorker(0).start()
            await enroll(router, worker, state=DRAINING)
            raw = await router._respond(post("optimize", {"nest": "mmjik"}))
            status, headers, doc = parse(raw)
            assert status == 503
            assert "retry-after" in headers
            assert doc["error"]["type"] == "no_workers"
            await worker.stop()

        asyncio.run(scenario())

    def test_502_when_every_candidate_fails(self):
        async def scenario():
            router = make_router(retry_attempts=2)
            workers = [await FakeWorker(slot, mode="hang-up").start()
                       for slot in range(2)]
            for worker in workers:
                await enroll(router, worker)
            raw = await router._respond(post("optimize", {"nest": "mmjik"}))
            status, headers, doc = parse(raw)
            assert status == 502
            assert doc["error"]["type"] == "worker_unavailable"
            assert "retry-after" in headers
            for worker in workers:
                await worker.stop()

        asyncio.run(scenario())

    def test_ring_stability_when_worker_leaves(self):
        """Sticky assignments of the *other* workers survive one
        worker's departure -- the cluster-level cache-warmth contract."""
        async def scenario():
            router = make_router()
            workers = [await FakeWorker(slot).start() for slot in range(3)]
            for worker in workers:
                await enroll(router, worker)
            kernels = ("mmjik", "mmjki", "jacobi", "sor", "afold",
                       "dmxpy0", "dmxpy1", "shal")
            before = {}
            for name in kernels:
                key = router.structural_key(
                    json.dumps({"nest": name}).encode())
                before[name] = router.membership.ring.lookup(key)
            router.membership.transition(2, DRAINING)
            for name in kernels:
                key = router.structural_key(
                    json.dumps({"nest": name}).encode())
                after = router.membership.ring.lookup(key)
                if before[name] != "w2":
                    assert after == before[name]
                else:
                    assert after in ("w0", "w1")
            for worker in workers:
                await worker.stop()

        asyncio.run(scenario())

class TestRouterEndpoints:
    def test_health_degraded_without_ready_workers(self):
        async def scenario():
            router = make_router()
            raw = await router._respond(
                Request("GET", "/healthz", {}, b"", True))
            status, _, doc = parse(raw)
            assert status == 503
            assert doc["status"] == "degraded"
            worker = await FakeWorker(0).start()
            await enroll(router, worker)
            raw = await router._respond(
                Request("GET", "/healthz", {}, b"", True))
            status, _, doc = parse(raw)
            assert status == 200 and doc["status"] == "ok"
            assert doc["cluster"]["ready"] == 1
            await worker.stop()

        asyncio.run(scenario())

    def test_unknown_route_and_wrong_method(self):
        async def scenario():
            router = make_router()
            status, _, doc = parse(await router._respond(
                Request("GET", "/nope", {}, b"", True)))
            assert status == 404
            status, _, doc = parse(await router._respond(
                Request("GET", "/v1/optimize", {}, b"", True)))
            assert status == 405
            status, _, doc = parse(await router._respond(
                Request("POST", "/cluster/status", {}, b"", True)))
            assert status == 405

        asyncio.run(scenario())

    def test_scale_validates_body(self):
        async def scenario():
            router = make_router()
            status, _, doc = parse(await router._respond(
                Request("POST", "/cluster/scale", {}, b"garbage", True)))
            assert status == 400
            status, _, doc = parse(await router._respond(Request(
                "POST", "/cluster/scale", {},
                json.dumps({"workers": 0}).encode(), True)))
            assert status == 400

        asyncio.run(scenario())

    def test_unstarted_router_creates_no_runtime_dir(self):
        """The supervisor's runtime dir appears on start, not on
        construction: a router that never starts leaves nothing behind."""
        def leftovers() -> set:
            return set(pathlib.Path(tempfile.gettempdir())
                       .glob("repro-cluster-*"))

        before = leftovers()
        router = make_router()
        assert router.supervisor.runtime_dir is None
        assert leftovers() == before
