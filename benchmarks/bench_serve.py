"""Load benchmark of the scheduling daemon (``repro.serve``).

Drives concurrent JSON-lines clients against one daemon and verifies the
serving layer's contract under load:

* **stampede** -- N cold concurrent requests for one expensive net must
  coalesce onto a single in-flight EP search;
* **zipf** -- a measured pass of many requests zipf-distributed (s ~ 1.1)
  over a corpus of nets against a warm daemon must be answered almost
  entirely by the caches: over the run's source lookups, ``coalesced +
  cache_hits > 0.9 * (coalesced + cache_hits + live_searches)``, with zero
  errors; the stampede and the warm-up answer every line once, and the
  daemon remembers each first answer, so ``--smoke`` requires every measured
  request to be a request-memo hit (``memo_hits``, which also count as
  ``l1_hits``) and no live search;
* **verification** -- every response's per-source schedule fingerprint must
  be byte-identical to a serial :func:`repro.scheduling.ep.find_all_schedules`
  run over the same corpus.

Results land in the ``"serve"`` section of ``BENCH_scheduler.json``
(``repro.util.merge_report``: every other section is kept byte for byte, and
an unreadable report is refused before the run and left untouched).

Modes::

    python benchmarks/bench_serve.py                  # in-process daemon
    python benchmarks/bench_serve.py --spawn          # real subprocess daemon
    python benchmarks/bench_serve.py --smoke          # CI: 50 requests, 5 nets

``--smoke`` asserts and exits non-zero on violation but writes no JSON;
``--spawn`` starts ``python -m repro.serve --port 0 --cache-dir DIR`` on a
fresh directory and discovers the port from the daemon's ready line,
exercising the CLI path end to end: the ready line must name the sqlite
file of the disk L2 it opened, and no lookup may reject a disk entry.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.apps import paper_nets  # noqa: E402
from repro.apps.workloads import (  # noqa: E402
    random_choice_net,
    random_marked_graph,
    random_multi_source_net,
)
from repro.petrinet.net import PetriNet  # noqa: E402
from repro.scheduling.ep import find_all_schedules  # noqa: E402
from repro.scheduling.serialize import schedule_fingerprint  # noqa: E402
from repro.serve.protocol import net_to_dict  # noqa: E402
from repro.util import ReportError, merge_report, read_report  # noqa: E402

ZIPF_EXPONENT = 1.1
SEED = 20260808

#: The stampede target: ~50ms of sequential per-source searches, long enough
#: that a cold burst's later arrivals reliably find the first one in flight.
STAMPEDE_NET = "multi_4x30"


def build_corpus() -> List[Tuple[str, PetriNet]]:
    """The serving corpus: paper figures plus generated families (14 nets).

    Ordered hot-to-cold for the zipf assignment -- cheap nets take most of
    the load, the expensive stampede net sits mid-tail.
    """
    return [
        ("figure_5", paper_nets.figure_5()),
        ("figure_4a", paper_nets.figure_4a()),
        ("figure_6", paper_nets.figure_6()),
        ("figure_8", paper_nets.figure_8()),
        # figure_4b is the paper's *non-schedulable* example; it has no place
        # in a corpus verified against successful serial schedules
        ("rmg_12", random_marked_graph(12, seed=9)),
        ("figure_7_k3", paper_nets.figure_7(3)),
        ("figure_7_k6", paper_nets.figure_7(6)),
        ("rmg_8", random_marked_graph(8, seed=1)),
        ("rmg_16", random_marked_graph(16, seed=2)),
        ("rmg_24", random_marked_graph(24, seed=3)),
        ("choice_3", random_choice_net(3, seed=4)),
        ("choice_5", random_choice_net(5, seed=5)),
        ("multi_2x10", random_multi_source_net(2, 10, seed=6)),
        (STAMPEDE_NET, random_multi_source_net(4, 30, seed=7)),
    ]


def zipf_sequence(names: Sequence[str], count: int, seed: int = SEED) -> List[str]:
    """``count`` net names, zipf-distributed over ``names`` by rank."""
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(names))]
    rng = random.Random(seed)
    return rng.choices(list(names), weights=weights, k=count)


def serial_reference(
    corpus: Sequence[Tuple[str, PetriNet]],
) -> Dict[str, Dict[str, str]]:
    """Ground truth: per-net, per-source schedule fingerprints, found serially."""
    reference: Dict[str, Dict[str, str]] = {}
    for name, net in corpus:
        results = find_all_schedules(net, raise_on_failure=True)
        reference[name] = {
            source: schedule_fingerprint(result.schedule)
            for source, result in results.items()
        }
    return reference


# ---------------------------------------------------------------------------
# client load
# ---------------------------------------------------------------------------


async def _rpc(port: int, payload: dict) -> dict:
    from repro.serve import protocol

    reader, writer = await asyncio.open_connection(
        "127.0.0.1", port, limit=protocol.MAX_LINE_BYTES
    )
    writer.write((json.dumps(payload) + "\n").encode())
    await writer.drain()
    line = await reader.readline()
    writer.close()
    if not line:
        raise RuntimeError("daemon closed the connection without answering")
    return json.loads(line)


async def _stats(port: int) -> dict:
    response = await _rpc(port, {"op": "stats"})
    return response["stats"]


def _check_response(
    name: str, response: dict, reference: Dict[str, Dict[str, str]]
) -> List[str]:
    """Mismatch descriptions for one schedule response (empty = verified)."""
    problems = []
    if not response.get("ok"):
        return [f"{name}: error response {response.get('error')}"]
    expected = reference[name]
    got = {r["source"]: r["schedule_fingerprint"] for r in response["results"]}
    if got != expected:
        problems.append(f"{name}: fingerprints diverge from serial reference")
    return problems


async def run_phase(
    port: int,
    requests: Sequence[str],
    nets: Dict[str, dict],
    reference: Dict[str, Dict[str, str]],
    *,
    concurrency: int,
) -> Dict[str, object]:
    """Fire ``requests`` (net names) at the daemon, verify every response."""
    semaphore = asyncio.Semaphore(concurrency)
    latencies: List[float] = []
    mismatches: List[str] = []
    client_errors: List[str] = []
    before = await _stats(port)

    async def one(name: str) -> None:
        async with semaphore:
            started = time.perf_counter()
            try:
                response = await _rpc(
                    port, {"op": "schedule", "net": nets[name]}
                )
            except Exception as error:  # noqa: BLE001 - tallied below
                client_errors.append(f"{name}: {error!r}")
                return
            latencies.append(time.perf_counter() - started)
            mismatches.extend(_check_response(name, response, reference))

    started = time.perf_counter()
    await asyncio.gather(*[one(name) for name in requests])
    elapsed = time.perf_counter() - started
    after = await _stats(port)
    delta = {
        key: after[key] - before[key]
        for key in (
            "requests",
            "responses",
            "errors",
            "bad_requests",
            "timeouts",
            "coalesced",
            "l1_hits",
            "disk_hits",
            "cache_hits",
            "live_searches",
            "memo_hits",
        )
    }
    latencies.sort()

    def pct(fraction: float) -> float:
        if not latencies:
            return 0.0
        return latencies[min(len(latencies) - 1, int(fraction * len(latencies)))]

    return {
        "requests": len(requests),
        "concurrency": concurrency,
        "elapsed_seconds": round(elapsed, 4),
        "throughput_rps": round(len(requests) / elapsed, 1) if elapsed else 0.0,
        "latency_seconds": {
            "p50": round(pct(0.50), 5),
            "p90": round(pct(0.90), 5),
            "p99": round(pct(0.99), 5),
            "max": round(latencies[-1], 5) if latencies else 0.0,
            "mean": round(statistics.fmean(latencies), 5) if latencies else 0.0,
        },
        "server_delta": delta,
        "mismatches": mismatches,
        "client_errors": client_errors,
    }


async def run_load(
    port: int,
    corpus: Sequence[Tuple[str, PetriNet]],
    reference: Dict[str, Dict[str, str]],
    *,
    stampede_clients: int,
    measured_requests: int,
    concurrency: int,
) -> Dict[str, object]:
    """The three phases -- stampede (cold), warm-up, measured zipf pass."""
    names = [name for name, _ in corpus]
    nets = {name: net_to_dict(net) for name, net in corpus}
    stampede_name = STAMPEDE_NET if STAMPEDE_NET in names else names[-1]

    stampede = await run_phase(
        port,
        [stampede_name] * stampede_clients,
        nets,
        reference,
        concurrency=stampede_clients,
    )
    warmup = await run_phase(port, names, nets, reference, concurrency=1)
    measured = await run_phase(
        port,
        zipf_sequence(names, measured_requests),
        nets,
        reference,
        concurrency=concurrency,
    )
    return {
        "corpus": names,
        "stampede_net": stampede_name,
        "zipf_exponent": ZIPF_EXPONENT,
        "phases": {"stampede": stampede, "warmup": warmup, "measured": measured},
        "final_stats": await _stats(port),
    }


# ---------------------------------------------------------------------------
# daemon frontends: in-process or spawned CLI
# ---------------------------------------------------------------------------


async def _bench_in_process(load) -> Tuple[Dict[str, object], bool]:
    from repro.serve.server import start_server

    server = await start_server(max_workers=4)
    try:
        section = await load(server.port)
    finally:
        clean = await server.shutdown()
    return section, clean


def _bench_spawned(load) -> Tuple[Dict[str, object], bool]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    with tempfile.TemporaryDirectory() as cache_dir:
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.serve", "--port", "0", "--workers", "4",
                "--cache-dir", cache_dir,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
        )
        try:
            ready = json.loads(process.stdout.readline())
            assert ready["event"] == "ready", ready
            store_file = os.path.join(cache_dir, "store.sqlite")
            assert ready["cache"] == f"sqlite ({store_file})", ready
            port = ready["port"]

            async def scenario():
                section = await load(port)
                await _rpc(port, {"op": "shutdown"})
                return section

            section = asyncio.run(scenario())
            process.wait(timeout=30)
            stopped = json.loads(process.stdout.readline())
            clean = bool(stopped.get("clean_drain")) and process.returncode == 0
            section["daemon"] = {"mode": "spawned", "pid": ready["pid"], "stopped": stopped}
            return section, clean
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()


# ---------------------------------------------------------------------------
# acceptance checks + report
# ---------------------------------------------------------------------------


def evaluate(section: Dict[str, object], clean: bool, *, smoke: bool) -> List[str]:
    """The acceptance criteria; violations returned as messages."""
    phases = section["phases"]
    totals = {
        key: sum(phase["server_delta"][key] for phase in phases.values())
        for key in phases["measured"]["server_delta"]
    }
    mismatches = [m for phase in phases.values() for m in phase["mismatches"]]
    client_errors = [e for phase in phases.values() for e in phase["client_errors"]]
    section["totals"] = totals
    # each source a response answers is one L1 or disk hit, coalesced wait or
    # live search; the warm ones are all but the last
    warm = totals["coalesced"] + totals["cache_hits"]
    lookups = warm + totals["live_searches"]
    section["warm_ratio"] = round(warm / lookups, 4) if lookups else 0.0
    section["clean_shutdown"] = clean

    problems = []
    if totals["errors"] or totals["bad_requests"] or totals["timeouts"]:
        problems.append(f"daemon reported errors: {totals}")
    if client_errors:
        problems.append(f"{len(client_errors)} client errors: {client_errors[:3]}")
    if mismatches:
        problems.append(f"{len(mismatches)} fingerprint mismatches: {mismatches[:3]}")
    if totals["coalesced"] < 1:
        problems.append("no request ever coalesced (single-flight had no effect)")
    measured = phases["measured"]["server_delta"]
    if smoke and (measured["memo_hits"] != measured["requests"] or measured["live_searches"]):
        problems.append(
            "every measured line was answered before, yet only "
            f"{measured['memo_hits']} of {measured['requests']} measured requests "
            f"were memo hits ({measured['live_searches']} live searches)"
        )
    if section["final_stats"]["disk_rejected"]:
        problems.append(
            f"{section['final_stats']['disk_rejected']} disk entries rejected "
            "by a daemon whose disk L2 only it wrote"
        )
    if not clean:
        problems.append("daemon shutdown did not drain cleanly")
    if not smoke and warm <= 0.9 * lookups:
        problems.append(
            f"warm ratio {section['warm_ratio']} <= 0.9: {totals['live_searches']} of "
            f"{lookups} source lookups searched live, the caches did not absorb the load"
        )
    return problems


def write_report(section: Dict[str, object], output: Path) -> None:
    """Merge the ``"serve"`` section into the scheduler benchmark report.

    Raises :class:`repro.util.ReportError` when the existing report is
    unreadable (the file is then left untouched).
    """
    merge_report(output, {"serve": section})


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Drive concurrent clients against the scheduling daemon."
    )
    parser.add_argument(
        "--requests", type=int, default=1000,
        help="measured zipf requests (default: 1000)",
    )
    parser.add_argument(
        "--concurrency", type=int, default=64,
        help="concurrent clients in the measured phase (default: 64)",
    )
    parser.add_argument(
        "--stampede", type=int, default=24,
        help="cold concurrent clients in the stampede phase (default: 24)",
    )
    parser.add_argument(
        "--spawn", action="store_true",
        help="run the daemon as a 'python -m repro.serve' subprocess",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI mode: 50 requests over 5 nets, assertions only, no JSON",
    )
    parser.add_argument(
        "--output", default=str(REPO_ROOT / "BENCH_scheduler.json"),
        help="scheduler benchmark report to merge the 'serve' section into",
    )
    args = parser.parse_args(argv)
    if not args.smoke:
        try:
            read_report(Path(args.output))
        except ReportError as error:
            print(f"ERROR: {error}; nothing run", file=sys.stderr)
            return 2

    corpus = build_corpus()
    if args.smoke:
        # the stampede net stays in -- it is what makes coalesced > 0 certain
        corpus = corpus[:4] + [corpus[-1]]
        args.requests, args.concurrency, args.stampede = 30, 16, 20
    print(f"corpus: {len(corpus)} nets; serial reference pass ...", flush=True)
    reference = serial_reference(corpus)

    def load(port: int):
        return run_load(
            port,
            corpus,
            reference,
            stampede_clients=args.stampede,
            measured_requests=args.requests,
            concurrency=args.concurrency,
        )

    if args.spawn:
        section, clean = _bench_spawned(load)
    else:
        section, clean = asyncio.run(_bench_in_process(load))
        section["daemon"] = {"mode": "in-process"}

    problems = evaluate(section, clean, smoke=args.smoke)
    totals = section["totals"]
    print(
        f"requests={totals['requests']} coalesced={totals['coalesced']} "
        f"cache_hits={totals['cache_hits']} memo_hits={totals['memo_hits']} "
        f"live_searches={totals['live_searches']} "
        f"errors={totals['errors']} warm_ratio={section['warm_ratio']} "
        f"clean_shutdown={section['clean_shutdown']}"
    )
    measured = section["phases"]["measured"]
    print(
        f"measured: {measured['requests']} reqs @ {measured['concurrency']} clients "
        f"-> {measured['throughput_rps']} rps, "
        f"p50={measured['latency_seconds']['p50'] * 1000:.1f}ms "
        f"p99={measured['latency_seconds']['p99'] * 1000:.1f}ms"
    )
    if not args.smoke:
        try:
            write_report(section, Path(args.output))
        except ReportError as error:
            print(f"ERROR: {error}; not written", file=sys.stderr)
            return 2
        print(f"'serve' section written to {args.output}")
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1
    print("all serving-layer criteria met")
    return 0


if __name__ == "__main__":
    sys.exit(main())
