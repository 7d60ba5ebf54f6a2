"""``python -m repro cluster`` -- the admin client for a running router.

A thin synchronous client over the router's admin routes::

    python -m repro cluster status --port 8787
    python -m repro cluster drain  --port 8787
    python -m repro cluster scale  --port 8787 --to 4
    python -m repro cluster reload --port 8787

``status`` prints the membership table (slot, state, pid, port,
restarts, pending); ``drain`` asks the cluster to shut down gracefully;
``scale`` grows or shrinks the fleet; ``reload`` rolls every worker one
at a time.  Exit status is 0 exactly when the router answered 200.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.serve.client import Client

__all__ = ["build_parser", "main", "run_admin"]

def _format_status(document: dict) -> str:
    lines = []
    cluster = document.get("cluster", {})
    router = document.get("router", {})
    lines.append(f"router :{router.get('port')} "
                 f"uptime {router.get('uptime_s', 0.0):.1f}s"
                 + (" DRAINING" if router.get("draining") else ""))
    lines.append(f"workers: {cluster.get('ready', 0)}/"
                 f"{cluster.get('target', 0)} ready, "
                 f"generation {cluster.get('generation', 0)}, "
                 f"pending {cluster.get('pending', 0)}")
    workers = document.get("membership", {}).get("workers", {})
    if workers:
        lines.append(f"{'slot':>4} {'state':<9} {'pid':>7} {'port':>6} "
                     f"{'restarts':>8} {'pending':>7}  last_error")
        for slot in sorted(workers, key=int):
            info = workers[slot]
            lines.append(
                f"{info.get('slot'):>4} {info.get('state', '?'):<9} "
                f"{info.get('pid') or '-':>7} {info.get('port') or '-':>6} "
                f"{info.get('restarts', 0):>8} {info.get('pending', 0):>7}"
                f"  {info.get('last_error') or ''}")
    return "\n".join(lines)

def run_admin(action: str, host: str, port: int,
              to: int | None = None, timeout: float = 120.0,
              as_json: bool = False) -> int:
    """Execute one admin action against the router; prints the result."""
    client = Client(host, port, timeout=timeout, transport="json",
                    max_retries=0)
    try:
        if action == "status":
            status, document = client.request("GET", "/cluster/status")
        elif action == "drain":
            status, document = client.request("POST", "/cluster/drain", {})
        elif action == "scale":
            if to is None:
                print("scale needs --to N", file=sys.stderr)
                return 2
            status, document = client.request("POST", "/cluster/scale",
                                              {"workers": to})
        elif action == "reload":
            status, document = client.request("POST", "/cluster/reload", {})
        else:  # pragma: no cover - argparse restricts choices
            print(f"unknown action {action!r}", file=sys.stderr)
            return 2
    except OSError as err:
        print(f"cannot reach router at {host}:{port}: {err}",
              file=sys.stderr)
        return 2
    finally:
        client.close()
    if as_json or action != "status":
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(_format_status(document))
    if status != 200:
        print(f"router answered HTTP {status}", file=sys.stderr)
        return 1
    return 0

def build_parser(parser: argparse.ArgumentParser | None = None
                 ) -> argparse.ArgumentParser:
    if parser is None:
        parser = argparse.ArgumentParser(
            description="administer a running repro cluster router")
    parser.add_argument("action",
                        choices=("status", "drain", "scale", "reload"))
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8787)
    parser.add_argument("--to", type=int, default=None,
                        help="target worker count (scale)")
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="HTTP timeout; reload of a large fleet can "
                             "take a while")
    parser.add_argument("--json", action="store_true",
                        help="print raw JSON instead of the status table")
    return parser

def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return run_admin(args.action, args.host, args.port, to=args.to,
                     timeout=args.timeout, as_json=args.json)

if __name__ == "__main__":
    sys.exit(main())
