"""The ``serve_mixed`` workload: a ``python -m repro serve`` subprocess
driven in a closed loop by two keep-alive clients.

Client 0 speaks v1 JSON, client 1 v2 binary frames.  They take turns from
one thread, so each waits for every reply before sending its next
request, as a compiler would, and only one request is in flight: on two
cores a second client thread made every latency depend on how the two
clients' requests happened to interleave.  A seeded
fifth of a client's requests carry a nest that client has not sent
before (the next of its share of the seeded corpus stream); the rest
repeat a seeded choice among the nests it already had answered in that
load.  The request sequences are fixed by the seed, so every run with
one seed sends the same requests; only the timing differs.
"""

from __future__ import annotations

import http.client
import json
import random
import selectors
import signal
import subprocess
import sys
import time
from typing import NamedTuple

from common import BOUND, NEW_SHARE, ROOT, child_env, workload_nests

from repro.api import serialize_nest
from repro.obs.trace import span
from repro.serve.client import Client

CLIENTS = ("json", "binary")
START_TIMEOUT_S = 60.0


class Reply(NamedTuple):
    """One request of a load: which client sent its ``seq``-th request,
    whether the nest was new to that client, and what came back."""

    client: int
    seq: int
    new: bool
    index: int
    seconds: float
    status: int
    payload: dict
    retries: int


class Server:
    """One server process on an ephemeral port; ``setup_s`` is spawn to
    the first 200 from ``/healthz`` (imports, engine, predictor load)."""

    def __init__(self):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--machine", "alpha"],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
        try:
            self.port = self._read_port(t0 + START_TIMEOUT_S)
            self._wait_healthy(t0 + START_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def _read_port(self, deadline: float) -> int:
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while time.perf_counter() < deadline:
                if not sel.select(timeout=deadline - time.perf_counter()):
                    break
                line = self.proc.stdout.readline()
                if not line:
                    break
                if "listening on" in line:
                    return int(line.strip().rsplit(":", 1)[1])
        raise RuntimeError("server did not announce a port")

    def _wait_healthy(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                              timeout=5)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.005)
        raise RuntimeError("server never became healthy")

    def metrics(self) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", "/metrics")
            return json.loads(conn.getresponse().read())["metrics"]
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then kill after a grace period; always
        reaps the process."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def plan(seed: int, per_client: int,
         loads: int) -> list[list[list[tuple[bool, int]]]]:
    """Each load's request sequence per client, as ``(new, k)`` with ``k``
    the position in ``common.workload_nests``.

    Client ``c`` takes positions ``c, c + 2, ...`` as its new nests, in
    order over all loads, so every load brings its own new nests and a
    run averages over ``loads`` times as many inputs.  A repeat names a
    nest the client already sent in the same load: each load has a fresh
    server.
    """
    taken = [0] * len(CLIENTS)
    out = []
    for load in range(loads):
        plans = []
        for client in range(len(CLIENTS)):
            rng = random.Random(f"{seed}:{load}:{client}")
            mine: list[int] = []
            requests = []
            for j in range(per_client):
                if j == 0 or rng.random() < NEW_SHARE:
                    mine.append(client + len(CLIENTS) * taken[client])
                    taken[client] += 1
                    requests.append((True, mine[-1]))
                else:
                    requests.append((False, rng.choice(mine)))
            plans.append(requests)
        out.append(plans)
    return out


def drive(port: int, plans, nests: dict, tracer=None) -> dict:
    """Run both clients to the end of their plans from one thread, taking
    turns request by request; returns the wall time and one
    :class:`Reply` per request."""
    specs = {index: serialize_nest(nests[index])
             for requests in plans for _, index in requests}
    clients = [Client("127.0.0.1", port, timeout=60, transport=transport)
               for transport in CLIENTS]
    turns = sorted((seq, c) for c, requests in enumerate(plans)
                   for seq in range(len(requests)))
    records = []
    try:
        t0 = time.perf_counter()
        for seq, c in turns:
            new, index = plans[c][seq]
            client = clients[c]
            start = time.perf_counter()
            try:
                if tracer is None:
                    status, payload = client.optimize(specs[index],
                                                      bound=BOUND)
                else:
                    with span("client.optimize", tracer=tracer,
                              transport=CLIENTS[c], new=new, index=index):
                        status, payload = client.optimize(specs[index],
                                                          bound=BOUND)
            except OSError as err:
                status, payload = 0, {"error": str(err)}
            records.append(Reply(c, seq, new, index,
                                 time.perf_counter() - start, status,
                                 payload, client.last_retries))
        wall = time.perf_counter() - t0
    finally:
        for client in clients:
            client.close()
    return {"wall_s": wall, "records": records}


def load_phase(plans, nests: dict, tracer=None) -> dict:
    """One fresh server: set up, read ``/metrics``, drive the plans, read
    ``/metrics`` again, record the server's peak RSS, stop it."""
    server = Server()
    try:
        before = server.metrics()
        out = drive(server.port, plans, nests, tracer)
        out["metrics_before"] = before
        out["metrics_after"] = server.metrics()
        out["peak_rss_mb"] = server.peak_rss_mb()
        out["setup_s"] = server.setup_s
    finally:
        server.stop()
    return out


def nests_for(seed: int, loads) -> tuple[list, dict]:
    """The loads' plans rewritten to stream indices, and the nests they
    name."""
    count = 1 + max(k for plans in loads for requests in plans
                    for _, k in requests)
    nests = workload_nests(seed, count)
    indices = list(nests)
    return ([[[(new, indices[k]) for new, k in requests]
              for requests in plans] for plans in loads], nests)
