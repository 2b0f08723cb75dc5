"""CLI entry point: ``python -m repro.serve``.

Starts the scheduling daemon and blocks until a client sends
``{"op": "shutdown"}`` (or the process receives SIGINT/SIGTERM), then
drains gracefully.  On startup one JSON *ready line* is printed to stdout::

    {"event": "ready", "host": "127.0.0.1", "port": 43121, "pid": 1234}

so wrappers (the benchmark's ``--spawn`` mode, the CI smoke job) can bind
``--port 0`` and discover the chosen port without races.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import signal
import sys
from typing import Optional, Sequence

import repro.cache as artifact_cache
from repro.serve.server import start_server


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Scheduling-as-a-service daemon (JSON lines over TCP).",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=7411, help="bind port (0 picks a free one)"
    )
    parser.add_argument(
        "--workers", type=int, default=max(2, os.cpu_count() or 1),
        help="search executor threads (bounds concurrent EP searches)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None,
        help="default per-request timeout in seconds (default: none)",
    )
    parser.add_argument(
        "--l1-capacity", type=int, default=256,
        help="in-memory schedule-record LRU capacity; also sizes the request "
        "memo (the response lines remembered for repeats)",
    )
    parser.add_argument(
        "--drain-deadline", type=float, default=10.0,
        help="seconds granted to in-flight requests on shutdown",
    )
    parser.add_argument(
        "--cache", action="store_true",
        help="open the persistent disk cache as the L2 "
        "(.cache/repro or $REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--cache-dir", default=None, help="disk cache location (implies --cache)"
    )
    return parser


async def _run(args) -> int:
    store = None
    if args.cache or args.cache_dir:
        store = artifact_cache.activate(path=args.cache_dir)
    server = await start_server(
        host=args.host,
        port=args.port,
        max_workers=args.workers,
        search_timeout=args.timeout,
        l1_capacity=args.l1_capacity,
        drain_deadline=args.drain_deadline,
        store=store,
    )
    ready = {
        "event": "ready",
        "host": args.host,
        "port": server.port,
        "pid": os.getpid(),
        "workers": args.workers,
        "cache": store.describe() if store is not None else "off",
    }
    print(json.dumps(ready), flush=True)
    loop = asyncio.get_running_loop()
    for signame in ("SIGINT", "SIGTERM"):
        with contextlib.suppress(NotImplementedError, AttributeError):
            loop.add_signal_handler(
                getattr(signal, signame), server.shutdown_requested.set
            )
    clean = await server.serve_until_shutdown()
    print(
        json.dumps({"event": "stopped", "clean_drain": clean}),
        flush=True,
    )
    return 0 if clean else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Parse arguments, run the daemon, return the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return asyncio.run(_run(args))
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
