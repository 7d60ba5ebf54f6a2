"""The cluster end to end: real worker processes behind a real router.

One shared 2-worker cluster exercises sticky routing, federation, the
shard response header, and admin status; a dedicated cluster proves
crash-restart supervision (``kill -9`` mid-service) and the graceful
drain leaves no orphan processes.  Slow by nature (each worker is a
spawned interpreter warming an engine), so scenarios are batched per
cluster.
"""

from __future__ import annotations

import functools
import json
import os
import signal
import time

import pytest

from repro.cluster import ClusterConfig, ClusterThread
from repro.serve.client import Client

#: v1 JSON transport and no 429 retries, so every status reaches the test.
JsonClient = functools.partial(Client, transport="json", max_retries=0)

def fast_config(**overrides) -> ClusterConfig:
    defaults = dict(workers=2, port=0, probe_interval_s=0.2,
                    probe_timeout_s=2.0, restart_backoff_s=0.1,
                    restart_backoff_max_s=1.0, startup_timeout_s=60,
                    drain_grace_s=15)
    defaults.update(overrides)
    return ClusterConfig(**defaults)

def pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True

@pytest.fixture(scope="class")
def cluster():
    with ClusterThread(fast_config()) as handle:
        yield handle

class TestClusterServing:
    def test_sticky_routing_and_federation(self, cluster, tmp_path_factory):
        client = JsonClient("127.0.0.1", cluster.port)
        try:
            # Identical nests always land on the same shard...
            shards = set()
            for _ in range(4):
                status, doc = client.optimize("mmjik", bound=3)
                assert status == 200 and doc["ok"]
                shards.add(client.last_headers["x-repro-shard"])
            assert len(shards) == 1
            # ...and a spread of nests reaches both shards.
            for name in ("jacobi", "sor", "afold", "dmxpy0", "mmjki",
                         "shal"):
                status, doc = client.optimize(name, bound=3)
                assert status == 200, (name, doc)
                shards.add(client.last_headers["x-repro-shard"])
            assert shards == {"0", "1"}

            # Federation: merged counters equal the per-shard sum.
            status, metrics = client.metrics()
            assert status == 200 and metrics["federated"]
            assert sorted(metrics["shards"]) == ["0", "1"]
            per_shard = [shard["metrics"]["counters"]
                         .get("serve.responses_2xx", 0)
                         for shard in metrics["shards"].values()]
            assert all(count > 0 for count in per_shard)
            assert metrics["metrics"]["counters"]["serve.responses_2xx"] \
                == sum(per_shard)
            assert metrics["cluster"]["ready"] == 2
        finally:
            client.close()

    def test_error_shapes_match_single_process_serving(self, cluster):
        client = JsonClient("127.0.0.1", cluster.port)
        try:
            status, doc = client.optimize("no-such-kernel")
            assert status == 404
            assert doc["error"]["type"] == "unknown_kernel"
            status, doc = client.request("POST", "/v1/optimize",
                                         {"machine": "alpha"})
            assert status == 400  # no nest at all
            status, doc = client.request("POST", "/v1/frobnicate",
                                         {"nest": "mmjik"})
            assert status == 404
        finally:
            client.close()

    def test_status_document_and_metrics_cli_format(self, cluster):
        client = JsonClient("127.0.0.1", cluster.port)
        try:
            status, doc = client.request("GET", "/cluster/status")
            assert status == 200
            assert doc["cluster"]["ready"] == 2
            states = {info["state"]
                      for info in doc["membership"]["workers"].values()}
            assert states == {"ready"}

            # The federated document renders as Prometheus text with
            # per-shard labels (the repro metrics / scraper path).
            from repro import obs

            _, metrics = client.metrics()
            text = obs.document_to_exposition(metrics)
            assert 'repro_shard_up{shard="0"} 1' in text
            assert 'repro_shard_up{shard="1"} 1' in text
            assert 'shard="router"' in text
        finally:
            client.close()

    def test_per_shard_cache_namespaces(self, tmp_path):
        config = fast_config(cache=True, cache_dir=str(tmp_path))
        with ClusterThread(config) as cached:
            client = JsonClient("127.0.0.1", cached.port)
            try:
                for name in ("mmjik", "jacobi", "sor", "dmxpy0"):
                    status, _ = client.optimize(name, bound=3)
                    assert status == 200
            finally:
                client.close()
        populated = [child.name for child in tmp_path.iterdir()
                     if any(child.glob("tables-*.json"))]
        assert populated  # at least one shard namespace was written
        assert all(name.startswith("shard-") for name in populated)

class TestSupervision:
    def test_kill9_restart_and_clean_drain(self):
        with ClusterThread(fast_config()) as cluster:
            client = JsonClient("127.0.0.1", cluster.port)
            try:
                status, _ = client.optimize("mmjik", bound=3)
                assert status == 200
                _, doc = client.request("GET", "/cluster/status")
                workers = doc["membership"]["workers"]
                pids = {slot: info["pid"]
                        for slot, info in workers.items()}

                os.kill(pids["0"], signal.SIGKILL)  # crash shard 0

                # The supervisor notices, restarts with backoff, and the
                # worker re-slots; total budget covers probe + backoff +
                # engine warmup.
                deadline = time.monotonic() + 45
                while time.monotonic() < deadline:
                    _, doc = client.request("GET", "/cluster/status")
                    info = doc["membership"]["workers"]["0"]
                    if info["state"] == "ready" and info["pid"] != pids["0"]:
                        break
                    time.sleep(0.2)
                else:
                    pytest.fail(f"worker 0 never came back: {doc}")
                assert info["restarts"] >= 1

                # Requests keep working after the restart (the ring
                # points are identical, so routing is unchanged).
                for name in ("mmjik", "jacobi", "sor"):
                    status, _ = client.optimize(name, bound=3)
                    assert status == 200
                _, doc = client.request("GET", "/cluster/status")
                final_pids = [info["pid"] for info
                              in doc["membership"]["workers"].values()]
            finally:
                client.close()
        # The drain (ClusterThread exit) leaves no orphan workers.
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and \
                any(pid_alive(pid) for pid in final_pids):
            time.sleep(0.1)
        assert not any(pid_alive(pid) for pid in final_pids)

    def test_drain_endpoint_shuts_the_cluster_down(self):
        cluster = ClusterThread(fast_config()).start()
        client = JsonClient("127.0.0.1", cluster.port)
        try:
            _, doc = client.request("GET", "/cluster/status")
            pids = [info["pid"] for info
                    in doc["membership"]["workers"].values()]
            status, doc = client.request("POST", "/cluster/drain", {})
            assert status == 200 and doc["draining"]
        finally:
            client.close()
        cluster._thread.join(timeout=30)
        assert not cluster._thread.is_alive()
        assert not any(pid_alive(pid) for pid in pids)
