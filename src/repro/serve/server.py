"""The asyncio TCP front end of the scheduling daemon.

One :class:`ScheduleServer` binds a listener, speaks the JSON-lines
protocol (:mod:`repro.serve.protocol`), and delegates every ``schedule``
request to a :class:`~repro.serve.service.SchedulingService` -- which is
where coalescing, caching and the executor live.  Requests on one
connection are processed in order; concurrency comes from concurrent
connections.

Every request line is digested (SHA-256 of its raw bytes) before it is
decoded.  A line the service's request memo recognises is answered on the
event loop with the bytes it got before, skipping decode, net build,
fingerprinting, the executor and response encoding; any other line takes
the full path, and a ``schedule`` response whose every source came from a
cache is remembered for the next repeat.  While draining, the memo is not
consulted, so a repeated line gets ``shutting-down`` like any other.

Lifecycle: :meth:`start` binds (port 0 picks a free port, reported by
:attr:`port`), :meth:`shutdown` drains gracefully -- the listener closes
first so no new work is admitted, in-flight requests get ``drain_deadline``
seconds to finish, then connections are closed and the service's executor
released.  A client-initiated ``{"op": "shutdown"}`` runs the same path
after acknowledging, which is how the CI smoke and the benchmark stop the
daemon they spawned.
"""

from __future__ import annotations

import asyncio
import hashlib
import math
import time
from typing import Dict, Optional, Tuple

from repro.petrinet.fingerprint import structural_fingerprint
from repro.petrinet.net import PetriNet
from repro.serve import protocol
from repro.serve.protocol import ProtocolError
from repro.serve.service import SchedulingService


class ScheduleServer:
    """JSON-lines-over-TCP transport around one :class:`SchedulingService`.

    ``drain_deadline`` bounds how long :meth:`shutdown` waits for in-flight
    requests; past it their connections are closed anyway (the searches
    finish on the executor, feeding the cache, but nobody hears back).
    """

    def __init__(
        self,
        service: SchedulingService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        drain_deadline: float = 10.0,
    ):
        self.service = service
        self.host = host
        self.requested_port = port
        self.drain_deadline = drain_deadline
        self.started_at: Optional[float] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()
        self._active_requests = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._draining = False
        self.shutdown_requested = asyncio.Event()

    # -- lifecycle ----------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (meaningful after :meth:`start`)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Bind the listener and start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.host,
            port=self.requested_port,
            limit=protocol.MAX_LINE_BYTES,
        )
        self.started_at = time.time()

    async def shutdown(self) -> bool:
        """Graceful stop: refuse new work, drain, close.  True if clean.

        "Clean" means every admitted request completed (and its response
        was flushed) within ``drain_deadline`` seconds.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        try:
            await asyncio.wait_for(self._idle.wait(), self.drain_deadline)
            clean = True
        except asyncio.TimeoutError:
            clean = False
        # orphaned searches (all waiters timed out) may outlive the requests;
        # give them the same bounded window, then abandon them to the executor
        await self.service.drain(self.drain_deadline if clean else 0)
        for writer in list(self._connections):
            writer.close()
        self.service.close()
        self.shutdown_requested.set()
        return clean

    async def serve_until_shutdown(self) -> bool:
        """Run until a client sends ``{"op": "shutdown"}``; then drain."""
        await self.shutdown_requested.wait()
        return await self.shutdown()

    def describe(self) -> Dict[str, object]:
        """Server block of the stats payload."""
        return {
            "connections": len(self._connections),
            "active_requests": self._active_requests,
            "draining": self._draining,
            "uptime_seconds": (
                round(time.time() - self.started_at, 3) if self.started_at else 0.0
            ),
        }

    # -- connection handling ------------------------------------------------
    def _track(self, delta: int) -> None:
        self._active_requests += delta
        if self._active_requests == 0:
            self._idle.set()
        else:
            self._idle.clear()

    async def _handle_connection(self, reader, writer) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    error = ProtocolError(
                        "bad-request",
                        f"request line exceeds {protocol.MAX_LINE_BYTES} bytes",
                    )
                    writer.write(protocol.encode_line(protocol.error_response(None, error)))
                    await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                self._track(+1)
                try:
                    stop = await self._handle_line(line, writer)
                finally:
                    self._track(-1)
                if stop:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-conversation; nothing to answer
        finally:
            # every response was already flushed (drain); close without
            # awaiting so loop teardown never cancels us mid-cleanup
            self._connections.discard(writer)
            writer.close()

    async def _handle_line(self, line: bytes, writer) -> bool:
        """Process one request line; True means "close this connection"."""
        started = time.perf_counter()
        metrics = self.service.metrics
        digest = hashlib.sha256(line).digest()
        if not self._draining:
            remembered = self.service.recall(digest)
            if remembered is not None:
                metrics.bump("requests")
                metrics.bump("responses")
                writer.write(remembered)
                elapsed = time.perf_counter() - started
                metrics.phases["memo"].observe(elapsed)
                metrics.phases["total"].observe(elapsed)
                await writer.drain()
                return False
        request_id = None
        bindings = None
        try:
            parse_started = time.perf_counter()
            request = protocol.decode_line(line)
            request_id = request.get("id")
            op = request.get("op", "schedule")
            metrics.phases["parse"].observe(time.perf_counter() - parse_started)
            if op == "ping":
                response = self._envelope(request_id, pong=True)
            elif op == "stats":
                response = self._envelope(
                    request_id,
                    stats=self.service.snapshot(),
                    server=self.describe(),
                )
            elif op == "shutdown":
                response = self._envelope(request_id, shutting_down=True)
                writer.write(protocol.encode_line(response))
                await writer.drain()
                self.shutdown_requested.set()
                return True
            elif op == "schedule":
                response, bindings = await self._handle_schedule(request, request_id)
                metrics.phases["total"].observe(time.perf_counter() - started)
            else:
                raise ProtocolError("bad-request", f"unknown op {op!r}")
        except ProtocolError as error:
            bucket = "bad_requests" if error.kind.startswith("bad-") else "errors"
            metrics.bump(bucket)
            response = protocol.error_response(request_id, error)
        except Exception as error:  # noqa: BLE001 - never tear the connection down
            metrics.bump("errors")
            response = protocol.error_response(
                request_id, ProtocolError("internal", f"unexpected failure: {error!r}")
            )
        body = protocol.encode_line(response)
        if bindings is not None:
            # every source came from a cache: a repeat of this exact line
            # gets these bytes while the L1 still holds those records
            self.service.remember(digest, body, bindings)
        writer.write(body)
        await writer.drain()
        return False

    async def _handle_schedule(
        self, request, request_id
    ) -> Tuple[Dict[str, object], Optional[Tuple]]:
        """One ``schedule`` response, and its bindings when it may be remembered."""
        if self._draining:
            raise ProtocolError("shutting-down", "server is draining; retry elsewhere")
        self.service.metrics.bump("requests")
        build_started = time.perf_counter()
        net, fingerprint = await self._build_net(request)
        options = protocol.options_from_dict(request.get("options"))
        sources = protocol.resolve_sources(net, request.get("sources"))
        self.service.metrics.phases["build"].observe(
            time.perf_counter() - build_started
        )
        timeout = request.get("timeout")
        if timeout is not None and (
            not isinstance(timeout, (int, float))
            or isinstance(timeout, bool)
            or not 0 < timeout < math.inf
        ):
            raise ProtocolError(
                "bad-request", f"'timeout' must be a positive number of seconds, got {timeout!r}"
            )
        payloads, bindings = await self.service._schedule_net(
            net,
            sources,
            options,
            fingerprint,
            **({"timeout": float(timeout)} if timeout is not None else {}),
        )
        self.service.metrics.bump("responses")
        response = self._envelope(
            request_id, net_fingerprint=fingerprint, results=payloads
        )
        return response, bindings

    async def _build_net(self, request) -> Tuple[PetriNet, str]:
        """The request's net (serialized or FlowC) and its structural fingerprint.

        Both are computed in one executor call, off the event loop.
        """
        if "net" in request:
            data = request["net"]

            def build():
                return protocol.net_from_dict(data)

        elif "flowc" in request:
            spec = request["flowc"]
            if not isinstance(spec, dict):
                raise ProtocolError("bad-flowc", "'flowc' must be a JSON object")

            def build():
                from repro.flowc.linker import link

                network = protocol.network_from_spec(spec)
                try:
                    return link(network).net
                except ProtocolError:
                    raise
                except Exception as error:
                    raise ProtocolError("bad-flowc", f"compile/link failed: {error}")

        else:
            raise ProtocolError(
                "bad-request", "schedule request needs 'net' or 'flowc'"
            )

        def build_and_fingerprint():
            net = build()
            return net, structural_fingerprint(net)

        return await asyncio.get_running_loop().run_in_executor(
            self.service._executor, build_and_fingerprint
        )

    @staticmethod
    def _envelope(request_id, **fields) -> Dict[str, object]:
        body: Dict[str, object] = {"ok": True, "protocol": protocol.PROTOCOL_VERSION}
        if request_id is not None:
            body["id"] = request_id
        body.update(fields)
        return body


async def start_server(
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    max_workers: int = 4,
    search_timeout: Optional[float] = None,
    l1_capacity: int = 256,
    drain_deadline: float = 10.0,
    store=None,
) -> ScheduleServer:
    """Convenience: build a service + server pair and start listening.

    The keyword arguments are :class:`SchedulingService`'s and
    :class:`ScheduleServer`'s; ``store`` is the disk L2 (``None``, the
    default, keeps the daemon memory-only).

    Example::

        >>> import asyncio
        >>> async def demo():
        ...     server = await start_server(max_workers=1)
        ...     port = server.port
        ...     await server.shutdown()
        ...     return port > 0
        >>> asyncio.run(demo())
        True
    """
    service = SchedulingService(
        max_workers=max_workers,
        search_timeout=search_timeout,
        l1_capacity=l1_capacity,
        store=store,
    )
    server = ScheduleServer(
        service, host=host, port=port, drain_deadline=drain_deadline
    )
    await server.start()
    return server
