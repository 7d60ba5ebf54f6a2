"""repro.serve: the compiler-as-a-service layer.

A long-lived asyncio HTTP/1.1 service over the memoized
:class:`~repro.engine.AnalysisEngine`, so one warm set of
structural-key caches answers unroll-and-jam queries for every client:

* :mod:`repro.serve.http` -- the HTTP/1.1 plumbing and the one
  listener lifecycle (keep-alive loop, ``GET /healthz|/metrics``,
  SIGTERM drain, metrics flush, thread harness) that the server and the
  cluster router share;
* :mod:`repro.serve.server` -- the analysis service on that front end
  (``POST /v1/analyze|optimize|transform``, ``POST /v2/frame``),
  request-size limits, per-request timeouts;
* :mod:`repro.serve.batcher` -- duplicate coalescing, a result LRU,
  bounded admission (429 backpressure), and dispatch on admission into
  the engine's thread pool;
* :mod:`repro.serve.protocol` -- the JSON wire shapes and structured
  errors;
* :mod:`repro.serve.client` -- a keep-alive client and the load
  generator the benchmark and CI smoke job drive.

Start it with ``python -m repro serve``; see docs/SERVING.md.
"""

from repro.serve.batcher import BatchConfig, MicroBatcher, Overloaded
from repro.serve.protocol import ProtocolError, RequestSpec
from repro.serve.server import (
    AnalysisServer,
    ServeConfig,
    ServerThread,
    run_server,
)

# The client half (Client, run_load, wait_for_server) lives in
# repro.serve.client and is imported from there directly -- keeping it
# out of the package root lets ``python -m repro.serve.client`` run
# without double-importing the module.

__all__ = [
    "AnalysisServer",
    "BatchConfig",
    "MicroBatcher",
    "Overloaded",
    "ProtocolError",
    "RequestSpec",
    "ServeConfig",
    "ServerThread",
    "run_server",
]
