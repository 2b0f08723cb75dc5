"""The scheduling daemon as a benchmark subject.

:class:`Daemon` starts the daemon of ``python -m repro.serve`` on a Unix
socket (``serve_unix.py``: a sandbox without a network has no loopback) and
waits for its ready line; :func:`closed_loop` drives it from persistent
connections, each sending its next request only after the previous reply
arrived (callers of a scheduling daemon, such as build tools, wait for each
reply).
"""

from __future__ import annotations

import asyncio
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.serve import protocol

from hostspeed import SpeedTrack
from tracing import Tracer

HERE = Path(__file__).resolve().parent

#: Counters of the ``stats`` op whose change over the measured window is kept.
STATS_COUNTERS = ("requests", "errors", "bad_requests", "timeouts", "coalesced",
                  "l1_hits", "disk_hits", "live_searches")
PHASES = ("parse", "build", "search", "total")
#: L1 entries of the daemon (its default is 256).  A run requests fewer
#: distinct keys than that; with this many, the L1 evicts and the disk L2
#: serves some hits, as in a daemon that has run for long.
L1_CAPACITY = 128
#: Closed-loop connections.  With two, a request's time depends on what the
#: other connection's request does in the daemon at the time (the two share
#: its GIL), which moves the median from run to run.
CONNECTIONS = 1
#: A pass runs its sequence in this many chunks (see closed_loop) ...
CHUNKS = 10
#: ... and probes the host speed this often between two.
IDLE_PROBES = 10


@dataclass
class Request:
    """One population item: its wire line and the expected fingerprints."""

    name: str
    line: bytes
    reference: Dict[str, str]


@dataclass
class LoadResult:
    #: (start, end) of each request by position in the sequence (None: no answer)
    intervals: List[Optional[Tuple[float, float]]] = field(default_factory=list)
    #: whether every source of the answer came from a cache, by position
    from_cache: List[Optional[bool]] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    #: positions whose answer was missing or wrong
    failed: Set[int] = field(default_factory=set)
    #: the host's slowdown around each request (see closed_loop)
    slowdowns: List[Optional[float]] = field(default_factory=list)
    started: float = 0.0
    ended: float = 0.0
    #: seconds the clients spent in requests, as measured and at reference speed
    busy: float = 0.0
    scaled_busy: float = 0.0


class Daemon:
    """A spawned daemon process (``serve_unix.py``) with its disk L2."""

    def __init__(self, root: Path, cache_dir: Path, workers: int = 2):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src") + os.pathsep + env.get("PYTHONPATH", "")
        # a socket path holds about 100 bytes: name it relative to here
        self.socket = os.path.relpath(cache_dir.with_suffix(".sock"))
        self.started_at = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "serve_unix.py"), "--socket", self.socket,
             "--workers", str(workers), "--l1-capacity", str(L1_CAPACITY),
             "--cache-dir", str(cache_dir)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env,
        )
        line = self.process.stdout.readline()
        self.ready_at = time.perf_counter()
        if not line or json.loads(line).get("event") != "ready":
            self.stop()
            raise RuntimeError("daemon exited before its ready line")

    def status(self) -> Dict[str, int]:
        """Peak resident set (kB) and CPU ticks of the daemon so far."""
        pid = self.process.pid
        with open(f"/proc/{pid}/status") as handle:
            fields = dict(line.split(":", 1) for line in handle if ":" in line)
        with open(f"/proc/{pid}/stat") as handle:
            stat = handle.read().rsplit(")", 1)[1].split()
        return {"vmhwm_kb": int(fields["VmHWM"].split()[0]),
                "cpu_ticks": int(stat[11]) + int(stat[12])}

    def stop(self) -> None:
        """Ask for a graceful shutdown, then wait (kill as the last resort)."""
        try:
            if self.process.poll() is None:
                asyncio.run(rpc(self.socket, {"op": "shutdown"}))
                self.process.wait(timeout=30)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.process.poll() is None:
                self.process.kill()
            self.process.wait()
            self.process.stdout.close()
            if os.path.exists(self.socket):
                os.unlink(self.socket)


async def rpc(socket: str, payload: Dict[str, object]) -> Dict[str, object]:
    """One request on a fresh connection."""
    reader, writer = await asyncio.open_unix_connection(socket, limit=protocol.MAX_LINE_BYTES)
    writer.write(protocol.encode_line(payload))
    await writer.drain()
    line = await reader.readline()
    writer.close()
    await writer.wait_closed()
    return json.loads(line)


def stats_window(before: Dict[str, object], after: Dict[str, object]) -> Dict[str, float]:
    """Counter deltas plus per-phase summed seconds over a window."""
    delta: Dict[str, float] = {name: after[name] - before[name] for name in STATS_COUNTERS}
    for phase in PHASES:
        a, b = after["latency"][phase], before["latency"][phase]
        delta[f"{phase}_seconds"] = (
            a["mean_seconds"] * a["count"] - b["mean_seconds"] * b["count"]
        )
    return delta


def _verdict(request: Request, body: bytes) -> tuple:
    """``(problem or None, all sources from cache)`` for one response line."""
    response = json.loads(body)
    if not response.get("ok"):
        return f"{request.name}: error response {response.get('error')}", False
    results = response["results"]
    got = {r["source"]: r["schedule_fingerprint"] for r in results}
    problem = None
    if got != request.reference:
        problem = f"{request.name}: fingerprints diverge from the serial reference"
    return problem, all(r["from_cache"] for r in results)


async def _closed_loop(socket: str, sequence: Sequence[Request], tracer: Tracer,
                       track: SpeedTrack) -> LoadResult:
    result = LoadResult(intervals=[None] * len(sequence), from_cache=[None] * len(sequence),
                        slowdowns=[None] * len(sequence))
    verdicts: Dict[bytes, tuple] = {}

    async def client(reader, writer, position) -> None:
        for index in position:
            request = sequence[index]
            with tracer.span("serve.request", index):
                started = time.perf_counter()
                writer.write(request.line)
                await writer.drain()
                body = await reader.readline()
                ended = time.perf_counter()
            if not body:
                result.problems.append(f"{request.name}: connection closed")
                result.failed.add(index)
                return
            # identical response bytes get identical verdicts: parse once
            verdict = verdicts.get(body)
            if verdict is None:
                verdict = verdicts[body] = _verdict(request, body)
            problem, result.from_cache[index] = verdict
            if problem is not None:
                result.problems.append(problem)
                result.failed.add(index)
            result.intervals[index] = (started, ended)

    streams = [
        await asyncio.open_unix_connection(socket, limit=protocol.MAX_LINE_BYTES)
        for _ in range(CONNECTIONS)
    ]
    try:
        before = track.idle_slowdown(IDLE_PROBES)
        result.started = time.perf_counter()
        for chunk in range(CHUNKS):
            first, last = (len(sequence) * n // CHUNKS for n in (chunk, chunk + 1))
            position = iter(range(first, last))
            started = time.perf_counter()
            await asyncio.gather(*(client(reader, writer, position) for reader, writer in streams))
            ended = time.perf_counter()
            after = track.idle_slowdown(IDLE_PROBES)
            slowdown = statistics.median(before + after)
            result.slowdowns[first:last] = [slowdown] * (last - first)
            result.busy += ended - started
            result.scaled_busy += (ended - started) / slowdown
            before = after
        result.ended = time.perf_counter()
    finally:
        for _, writer in streams:
            writer.close()
            await writer.wait_closed()
    return result


def closed_loop(daemon: Daemon, sequence: Sequence[Request], track: SpeedTrack,
                tracer: Optional[Tracer] = None) -> tuple:
    """Run ``sequence`` through :data:`CONNECTIONS` closed-loop clients.

    The sequence runs in :data:`CHUNKS` consecutive chunks.  Between two the
    daemon is idle while the host speed is probed: probes taken while it
    works would time the contention with it, not the host.  A request's
    slowdown is the median of the probes around its chunk.

    Returns the :class:`LoadResult`, the ``stats`` deltas over the window and
    the daemon's CPU ticks spent in it.
    """
    tracer = tracer or Tracer(False)
    before = asyncio.run(rpc(daemon.socket, {"op": "stats"}))["stats"]
    ticks = daemon.status()["cpu_ticks"]
    result = asyncio.run(_closed_loop(daemon.socket, sequence, tracer, track))
    ticks = daemon.status()["cpu_ticks"] - ticks
    after = asyncio.run(rpc(daemon.socket, {"op": "stats"}))["stats"]
    return result, stats_window(before, after), ticks


@dataclass
class Pass:
    """One closed-loop pass against a freshly started daemon.

    Durations are at the reference host speed (see hostspeed and
    :func:`closed_loop`); ``raw`` has the request latencies as measured.
    """

    load: LoadResult
    latencies: List[Optional[float]]
    raw: List[Optional[float]]
    seconds: float
    window: Dict[str, float]
    cpu_seconds: float
    ready_seconds: float
    peak_rss_mb: float
    slowdown: float


def cold_pass(root: Path, cache_dir: Path, sequence: Sequence[Request], track: SpeedTrack,
              tracer: Optional[Tracer] = None) -> Pass:
    """Start a daemon with an empty L2 in ``cache_dir``, run, stop it.

    This thread and the daemon, which inherits its mask, run on one CPU.
    The closed loop keeps one of them busy at a time, so they lose no
    parallelism, and the host-speed probes time the CPU the daemon runs on:
    the CPUs of a shared host slow down apart from each other.
    """
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(mask)})
    try:
        daemon = Daemon(root, cache_dir)
        try:
            load, window, ticks = closed_loop(daemon, sequence, track, tracer)
            status = daemon.status()
        finally:
            daemon.stop()
    finally:
        os.sched_setaffinity(0, mask)
    slowdown = statistics.median(load.slowdowns)
    raw = [span[1] - span[0] if span else None for span in load.intervals]
    return Pass(
        load=load,
        latencies=[
            seconds / slowdown if seconds is not None else None
            for seconds, slowdown in zip(raw, load.slowdowns)
        ],
        raw=raw,
        seconds=load.scaled_busy,
        window=window,
        cpu_seconds=ticks / os.sysconf("SC_CLK_TCK"),
        ready_seconds=(daemon.ready_at - daemon.started_at) / slowdown,
        peak_rss_mb=status["vmhwm_kb"] / 1024,
        slowdown=slowdown,
    )
