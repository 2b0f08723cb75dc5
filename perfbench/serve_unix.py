"""The scheduling daemon of ``python -m repro.serve``, listening on a Unix socket.

``python -m repro.serve`` listens on TCP.  In a sandbox without a network
the loopback interface is down: the daemon binds, but no client can connect.
This entry point runs the same daemon (the library's ``SchedulingService``,
``ScheduleServer`` protocol handling and disk L2, with the same options and
the same ready line) on a Unix socket, which needs no network::

    python3 perfbench/serve_unix.py --socket PATH --workers 2 --cache-dir DIR

The ready line carries ``"socket"`` where the TCP daemon's has ``"port"``;
the disk L2 is always on.
A client's ``{"op": "shutdown"}`` drains and stops it, as with the TCP one.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time
from typing import Optional, Sequence

import repro.cache as artifact_cache
from repro.serve import protocol
from repro.serve.server import ScheduleServer
from repro.serve.service import SchedulingService


class UnixScheduleServer(ScheduleServer):
    """:class:`ScheduleServer` with its listener on a Unix socket."""

    def __init__(self, service: SchedulingService, path: str, **kwargs):
        super().__init__(service, **kwargs)
        self.path = path

    async def start(self) -> None:
        self._server = await asyncio.start_unix_server(
            self._handle_connection, path=self.path, limit=protocol.MAX_LINE_BYTES
        )
        self.started_at = time.time()


async def serve(args) -> int:
    store = artifact_cache.activate(path=args.cache_dir)
    service = SchedulingService(
        max_workers=args.workers, l1_capacity=args.l1_capacity, store=store
    )
    server = UnixScheduleServer(service, args.socket)
    await server.start()
    ready = {
        "event": "ready",
        "socket": args.socket,
        "pid": os.getpid(),
        "workers": args.workers,
        "cache": store.describe(),
    }
    print(json.dumps(ready), flush=True)
    clean = await server.serve_until_shutdown()
    return 0 if clean else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--socket", required=True, help="path of the Unix socket to create")
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--l1-capacity", type=int, required=True)
    parser.add_argument("--cache-dir", required=True, help="disk L2 location")
    return asyncio.run(serve(parser.parse_args(argv)))


if __name__ == "__main__":
    sys.exit(main())
