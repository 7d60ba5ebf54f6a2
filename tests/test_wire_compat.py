"""v1 wire compatibility: committed golden requests against the v2 stack.

``tests/golden/wire_v1/*.json`` are frozen v1 JSON exchanges -- the
request bytes an old client sends and the contract facts its author
could have depended on (status code, ``ok``, stable fields, the legacy
``error.type``).  Each golden file is replayed with a bare
``http.client`` connection (no :class:`repro.serve.client.Client`, no
negotiation -- exactly what a v1 client does) against:

* a live v2 :class:`~repro.serve.server.AnalysisServer`, and
* the cluster router (single worker), whose error envelope and routing
  must stay byte-compatible with single-process serving.

Also pins the v2 additions v1 clients silently ride on: the unified
error envelope carries the new ``code``/``kind``/``retryable`` fields
next to the frozen ``type`` alias, and the same request answered over
the binary-frame transport produces the same document.

The CI ``wire-compat`` job runs exactly this module.
"""

from __future__ import annotations

import http.client
import json
import pathlib

import pytest

from repro.engine import AnalysisEngine
from repro.serve.client import Client
from repro.serve.server import ServeConfig, ServerThread

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden" / "wire_v1"
GOLDEN = sorted(GOLDEN_DIR.glob("*.json"))

def _replay(port: int, case: dict) -> tuple[int, dict]:
    """One golden exchange over a bare v1-style connection."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        if "raw_body" in case:
            body = case["raw_body"].encode("utf-8")
        elif "body" in case:
            body = json.dumps(case["body"]).encode("utf-8")
        else:
            body = None
        conn.request(case["method"], case["path"], body=body,
                     headers={"Content-Type": "application/json"}
                     if body is not None else {})
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()

def _assert_case(case: dict, status: int, doc: dict) -> None:
    expect = case["expect"]
    assert status == expect["status"], (case["name"], status, doc)
    if "ok" in expect:
        assert doc.get("ok") is expect["ok"], (case["name"], doc)
    for key, value in expect.get("equals", {}).items():
        assert doc.get(key) == value, (case["name"], key, doc.get(key))
    for key in expect.get("fields", []):
        assert key in doc, (case["name"], key, sorted(doc))
    for key in expect.get("absent", []):
        assert key not in doc, (case["name"], key, doc.get(key))
    if "error_type" in expect:
        err = doc["error"]
        # The frozen v1 contract field...
        assert err["type"] == expect["error_type"], (case["name"], err)
        # ...and the v2 envelope additions riding next to it.
        assert err["code"] == err["type"]
        for field in ("kind", "message", "retryable", "retry_after"):
            assert field in err, (case["name"], field, sorted(err))

@pytest.fixture(scope="module")
def server_port():
    config = ServeConfig(port=0)
    with ServerThread(config, AnalysisEngine()) as handle:
        yield handle.port

def test_golden_corpus_is_nonempty():
    assert len(GOLDEN) >= 6

@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
def test_v1_golden_against_v2_server(server_port, path):
    case = json.loads(path.read_text())
    status, doc = _replay(server_port, case)
    _assert_case(case, status, doc)

def test_v1_golden_against_cluster_router():
    from repro.cluster import ClusterConfig, ClusterThread

    config = ClusterConfig(workers=1, port=0, probe_interval_s=0.25)
    with ClusterThread(config) as handle:
        for path in GOLDEN:
            case = json.loads(path.read_text())
            status, doc = _replay(handle.port, case)
            _assert_case(case, status, doc)

def test_binary_transport_matches_v1_documents(server_port):
    """The same request over the v2 frame transport yields the same
    document a v1 JSON client gets -- encoding changes nothing."""
    json_client = Client(port=server_port, transport="json")
    frame_client = Client(port=server_port, transport="binary")
    try:
        for case in (json.loads(p.read_text()) for p in GOLDEN):
            if case["method"] != "POST" or "body" not in case:
                continue
            kind = case["path"].rsplit("/", 1)[-1]
            body = case["body"]
            params = {k: v for k, v in body.items()
                      if k not in ("nest", "machine")}
            status_j, doc_j = json_client.call(
                kind, body["nest"], body.get("machine"), params)
            status_b, doc_b = frame_client.call(
                kind, body["nest"], body.get("machine"), params)
            assert status_j == status_b == case["expect"]["status"]
            assert doc_j == doc_b, case["name"]
    finally:
        json_client.close()
        frame_client.close()
