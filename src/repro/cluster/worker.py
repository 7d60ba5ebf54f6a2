"""The cluster worker: one warm engine behind the serve stack, announced.

``python -m repro.cluster.worker --slot N --announce PATH`` hosts a
:class:`~repro.serve.server.AnalysisServer` (the full coalescing /
result-cache / backpressure stack of docs/SERVING.md) on an ephemeral
loopback port and *announces* the bound port by atomically writing a
small JSON document to ``PATH``::

    {"slot": 3, "port": 43817, "pid": 12345}

The supervisor polls for that file instead of parsing stdout, then
probes ``/healthz`` until the worker turns READY.  Ephemeral ports mean
N workers never race for a port range, and a restarted worker simply
re-announces its new port.

Shard discipline:

* the server is tagged ``shard=<slot>`` so its health/metrics documents
  identify themselves in the router's federated view;
* with ``--cache-dir``, the engine's disk tier (:mod:`repro.engine.disk`)
  lives in that directory, and the supervisor gives every shard the
  *same* one: whichever worker builds a table (or a per-UGS entry)
  first publishes it, and every other shard -- including ones spawned
  later by ``scale`` -- reads it instead of rebuilding.  Publishes are
  atomic per writer, so shards never see each other's partial entries.

SIGTERM drains gracefully through the serve layer's drain: the listener
closes, every accepted request is answered, then the process exits 0.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

from repro.engine import AnalysisEngine
from repro.serve.batcher import BatchConfig
from repro.serve.http import serve_blocking
from repro.serve.server import AnalysisServer, ServeConfig

__all__ = ["build_worker_server", "main"]

def _write_announce(path: pathlib.Path, document: dict) -> None:
    """Write-to-temp + atomic rename: the supervisor never reads a
    partially written announcement."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    tmp.write_text(json.dumps(document, sort_keys=True))
    os.replace(tmp, path)

def build_worker_server(args: argparse.Namespace) -> AnalysisServer:
    engine = AnalysisEngine(disk_cache=args.cache_dir is not None,
                            cache_dir=args.cache_dir)
    config = ServeConfig(
        host=args.host, port=args.port, machine=args.machine,
        max_body=args.max_body, request_timeout_s=args.timeout,
        metrics_path=args.metrics_out, shard=str(args.slot),
        batch=BatchConfig(queue_limit=args.queue_limit,
                          threads=args.threads))
    return AnalysisServer(config, engine)

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="one repro.cluster worker shard (spawned by the "
                    "supervisor; see docs/CLUSTER.md)")
    parser.add_argument("--slot", type=int, required=True,
                        help="shard slot index (stable across restarts)")
    parser.add_argument("--announce", default=None,
                        help="write {slot, port, pid} JSON here once "
                             "listening")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="0 (default) binds an ephemeral port")
    parser.add_argument("--machine", default="alpha")
    parser.add_argument("--timeout", type=float, default=30.0)
    parser.add_argument("--max-body", type=int, default=64 * 1024)
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--queue-limit", type=int, default=256)
    parser.add_argument("--cache-dir", default=None,
                        help="on-disk table directory (every shard of a "
                             "cluster shares one); omitted = memory only")
    parser.add_argument("--metrics-out", default=None,
                        help="flush the final metrics snapshot here on "
                             "drain")
    return parser

def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    server = build_worker_server(args)

    async def announce() -> None:
        _write_announce(pathlib.Path(args.announce),
                        {"slot": args.slot, "port": server.port,
                         "pid": os.getpid()})

    return serve_blocking(server, announce if args.announce else None)

if __name__ == "__main__":
    sys.exit(main())
