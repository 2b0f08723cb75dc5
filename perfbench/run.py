"""End-to-end and per-layer benchmark of the quasi-static scheduling pipeline.

One run executes one workload cold in this fresh process, checks every
output and prints, as its last line, one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the gated end-to-end ones; with
``--trace 1`` spans are recorded around every library call and the metrics
are the per-layer ones plus the end-to-end numbers too noisy to gate (see
README.md in this directory for both lists, the workloads and which layer
metric moves which end-to-end metric).  The line
before it starts with ``detail:`` and carries the run metadata and the exact
counters.  The exit code is 0 only when every check passed.

Run from the repository root::

    python3 perfbench/run.py --workload pfc_sweep --seed 20260808 --seconds 15 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Sequence, Tuple

from hostspeed import SpeedTrack


ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("pfc_sweep", "corpus_mix", "serve_zipf")
#: ``repro.corpus.generator.DEFAULT_SEED``
DEFAULT_SEED = 20260808

#: Set-up steps are repeated this often and their median is reported.
SETUP_REPEATS = 7
#: Host-speed probes before and after each set-up step.
SETUP_PROBES = 5
#: The parts of this run's set-up time, for the ``detail:`` line.
SETUP_PARTS: Dict[str, float] = {}

# Work per second of --seconds, so that one run lasts about that long on a
# 2-core container.  The work is fixed by (seed, seconds), never by the clock,
# so the exact counters repeat.
PASSES = 3
PFC_PASSES = 2
PFC_SYSTEMS_PER_S = 7
#: corpus_mix runs each system once: its median moves with the sample more
#: than with the host, so a run spends its time on more systems instead
CORPUS_SYSTEMS_PER_S = 36
CORPUS_SECONDS_PER_VERDICT = 10
SERVE_PROGRAMS_PER_S = 12.5
SERVE_REQUESTS_PER_S = 50
ZIPF_EXPONENT = 1.1
#: Systems a traced pfc_sweep / corpus_mix run sends through the daemon
#: (cold, then again warm) to measure the serve and cache layers.
SERVE_LEG_SYSTEMS = 16

#: Per-layer time metrics: mean self time per system of these spans.
LAYER_SPANS = {
    "flowc.parse_ms": "flowc.parse_program",
    "flowc.link_ms": "flowc.link",
    "petrinet.ecs_ms": "petrinet.StructuralAnalysis.of",
    "petrinet.tinv_ms": "petrinet.t_invariant_basis",
    "scheduling.search_ms": "scheduling.find_schedule",
    "codegen.synthesize_ms": "codegen.synthesize_task",
    "codegen.code_size_ms": "codegen.synthesized_code_size",
    "runtime.single_sim_ms": "runtime.SingleTaskSimulation",
    "runtime.multi_sim_ms": "runtime.MultiTaskSimulation.run",
}
#: Per-layer counters: sums over the run of the pipeline's exact counters.
LAYER_COUNTERS = {
    "flowc.net_transitions": "net_transitions",
    "petrinet.tinv_invariants": "tinv_invariants",
    "scheduling.nodes_expanded": "nodes_expanded",
    "scheduling.fires": "fires",
    "scheduling.tree_nodes": "tree_nodes",
    "codegen.segments": "segments",
    "runtime.context_switches": "context_switches",
}
#: End-to-end numbers whose spread on a shared 2-core host stayed within
#: the bound: printed with --trace 0.
GATED = ("p50_ms", "task_cycles", "task_code_bytes", "setup_s")
#: End-to-end numbers whose spread did not (the slowest systems and requests
#: swing with the neighbours' load, RSS with the sample): printed with the
#: per-layer metrics under these names.
UNGATED = {
    "tail_ms": "pipeline.tail_ms",
    "throughput_per_s": "pipeline.throughput_per_s",
    "peak_rss_mb": "proc.peak_rss_mb",
}
UNITS = {
    "p50_ms": "ms", "task_cycles": "cycles", "task_code_bytes": "bytes", "setup_s": "s",
    "pipeline.throughput_per_s": "1/s", "proc.peak_rss_mb": "MB",
    "scheduling.useful_ratio": "ratio", "serve.unexplained_share": "ratio",
    "cache.disk_hit_ratio": "ratio", "proc.cpu_per_wall": "ratio",
    "trace.child_coverage_min": "ratio",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "ms" if name.endswith("_ms") else "count"


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (inclusive interpolation)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def start_and_import() -> None:
    """A fresh interpreter importing every layer: process start + imports."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    code = ("import numpy, repro.flowc, repro.petrinet, repro.scheduling, "
            "repro.codegen, repro.runtime, repro.serve, repro.corpus")
    subprocess.run([sys.executable, "-c", code], check=True, env=env, cwd=ROOT,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def timed(step: Callable[[], object], track: SpeedTrack) -> Tuple[float, object]:
    """Seconds ``step`` took at the reference host speed, and its result.

    One step is a single long unit: its slowdown is the median of probes
    taken right before and after it, not of the probes of other units.
    """
    slowdowns = track.idle_slowdown(SETUP_PROBES)
    started = time.perf_counter()
    result = step()
    ended = time.perf_counter()
    slowdowns += track.idle_slowdown(SETUP_PROBES)
    return (ended - started) / statistics.median(slowdowns), result


def timed_setup(generate: Callable[[], object], track: SpeedTrack) -> Tuple[float, object]:
    """Median start+imports plus median input generation, and the inputs."""
    imports = statistics.median(timed(start_and_import, track)[0] for _ in range(SETUP_REPEATS))
    generation = []
    for _ in range(SETUP_REPEATS):
        seconds, inputs = timed(generate, track)
        generation.append(seconds)
    SETUP_PARTS.update(imports_s=imports, generation_s=statistics.median(generation))
    return imports + statistics.median(generation), inputs


def fresh_dir(label: str) -> Path:
    path = OUT / f"{label}-{os.getpid()}-{time.monotonic_ns()}"
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------------------
# in-process systems
# ---------------------------------------------------------------------------


def run_systems(systems, tracer, track: SpeedTrack, passes: int, seed: int) -> Dict[str, object]:
    """Every system through the pipeline ``passes`` times, in a new seeded
    order each pass.

    The first run of a system is checked against the multi-task reference;
    every later run must reproduce its fingerprints and counters.  A
    system's time is the median of its runs at the reference host speed.
    """
    from systems import check, run_pipeline

    outcomes, runs = [None] * len(systems), [[] for _ in systems]
    problems, failed = [], set()
    order, rng = list(range(len(systems))), random.Random(seed)
    cpu, wall = time.process_time(), time.perf_counter()
    for index in range(passes):
        for position in order:
            system = systems[position]
            track.probe()
            started = time.perf_counter()
            outcome = run_pipeline(system, tracer)
            runs[position].append((started, time.perf_counter(), outcome.seconds))
            first = outcomes[position]
            if first is None:
                outcomes[position] = outcome
                found = check(system, outcome, tracer)
            elif outcome.fingerprints != first.fingerprints or any(
                first.counters.get(key) != value for key, value in outcome.counters.items()
            ):
                found = [f"{system.name}: pass {index + 1} differs from pass 1"]
            else:
                found = []
            if found:
                failed.add(position)
                problems += found
        rng.shuffle(order)
    wall = time.perf_counter() - wall
    track.probe()
    counters: Dict[str, int] = {}
    raw = []
    for outcome, samples in zip(outcomes, runs):
        raw.append(statistics.median(seconds for _, _, seconds in samples))
        outcome.seconds = statistics.median(
            seconds / track.slowdown(started, ended) for started, ended, seconds in samples
        )
        for key, value in outcome.counters.items():
            counters[key] = counters.get(key, 0) + value
    return {
        "outcomes": outcomes,
        "problems": problems,
        "failed": len(failed),
        "counters": counters,
        "runs": len(systems) * passes,
        "raw_seconds": raw,
        "cpu_per_wall": (time.process_time() - cpu) / wall,
    }


def layer_metrics(tracer, run: Dict[str, object], slowdown: float) -> Dict[str, float]:
    """Per-layer numbers of the in-process pipeline, per system run, with
    times at the reference host speed (the run's median slowdown)."""
    self_seconds = tracer.self_seconds()
    scale = 1e3 / run["runs"] / slowdown
    metrics = {name: self_seconds.get(span, 0.0) * scale for name, span in LAYER_SPANS.items()}
    counters = run["counters"]
    for name, key in LAYER_COUNTERS.items():
        metrics[name] = counters.get(key, 0)
    metrics["scheduling.useful_ratio"] = counters.get("schedule_nodes", 0) / counters["tree_nodes"]
    metrics["trace.child_coverage_min"] = tracer.min_child_coverage("system")
    return metrics


def serve_metrics(passes) -> Dict[str, float]:
    """Per-layer numbers of the daemon over closed-loop passes."""
    window = {key: sum(p.window[key] for p in passes) for key in passes[0].window}
    answers = [
        (seconds, cached)
        for p in passes
        for seconds, cached in zip(p.latencies, p.load.from_cache)
        if seconds is not None
    ]
    hits = [seconds for seconds, cached in answers if cached]
    misses = [seconds for seconds, cached in answers if not cached]
    requests = max(window["requests"], 1)
    parse, build, search, total = (window[f"{p}_seconds"] for p in ("parse", "build", "search", "total"))
    keyed = window["disk_hits"] + window["live_searches"]
    return {
        "serve.hit_p50_ms": statistics.median(hits) * 1e3 if hits else 0.0,
        "serve.miss_p50_ms": statistics.median(misses) * 1e3 if misses else 0.0,
        "serve.parse_ms": parse * 1e3 / requests,
        "serve.build_ms": build * 1e3 / requests,
        "serve.search_ms": search * 1e3 / requests,
        "serve.total_ms": total * 1e3 / requests,
        "serve.unexplained_share": 1 - (parse + build + search) / total if total else 0.0,
        "serve.l1_hits": window["l1_hits"],
        "serve.live_searches": window["live_searches"],
        "serve.coalesced": window["coalesced"],
        "cache.disk_hits": window["disk_hits"],
        "cache.disk_hit_ratio": window["disk_hits"] / keyed if keyed else 0.0,
    }


def request_line(system) -> bytes:
    from repro.serve import protocol

    body = {"op": "schedule", "flowc": system.flowc}
    if system.wire_options() is not None:
        body["options"] = system.wire_options()
    return protocol.encode_line(body)


def serve_leg(systems, outcomes, tracer, track: SpeedTrack) -> tuple:
    """A few of the run's systems through the daemon, cold then warm."""
    from serve_load import Request, cold_pass

    chosen = [
        Request(system.name, request_line(system), outcome.fingerprints)
        for system, outcome in zip(systems, outcomes)
        if system.schedulable and outcome.schedulable
    ][:SERVE_LEG_SYSTEMS]
    cache_dir = fresh_dir("l2")
    try:
        leg = cold_pass(ROOT, cache_dir, chosen + chosen, track, tracer)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return serve_metrics([leg]), len(chosen) * 2, leg.load


def in_process_workload(name: str, seed: int, seconds: int, tracer, track) -> Dict[str, object]:
    """``pfc_sweep`` or ``corpus_mix``."""
    from systems import PFC_GRID, corpus_inputs, pfc_inputs

    if name == "pfc_sweep":
        count = min(len(PFC_GRID), max(2, round(PFC_SYSTEMS_PER_S * seconds)))
        generate = lambda: pfc_inputs(seed, count)  # noqa: E731
    else:
        count = max(7, round(CORPUS_SYSTEMS_PER_S * seconds))
        verdicts = max(1, round(seconds / CORPUS_SECONDS_PER_VERDICT))
        generate = lambda: corpus_inputs(seed, count, verdicts)  # noqa: E731
    setup, systems = timed_setup(generate, track)
    run = run_systems(systems, tracer, track, PFC_PASSES if name == "pfc_sweep" else 1, seed)
    outcomes = run["outcomes"]
    tasks = [o.seconds for s, o in zip(systems, outcomes) if s.schedulable]
    verdicts = [o.seconds for s, o in zip(systems, outcomes) if not s.schedulable]
    counters = run["counters"]
    end_to_end = {
        "p50_ms": statistics.median(tasks) * 1e3,
        "tail_ms": percentile(tasks, 90) * 1e3,
        "throughput_per_s": len(systems) / sum(o.seconds for o in outcomes),
        "task_cycles": counters.get("task_cycles", 0),
        "task_code_bytes": counters.get("code_bytes", 0),
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    layers, attempted, failed, problems = {}, len(systems), run["failed"], run["problems"]
    if tracer.enabled:
        layers = layer_metrics(tracer, run, track.median_slowdown())
        layers["proc.cpu_per_wall"] = run["cpu_per_wall"]
        leg, sent, load = serve_leg(systems, outcomes, tracer, track)
        layers.update(leg)
        attempted += sent
        failed += len(load.failed)
        problems = problems + load.problems
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "units": run["runs"],
        "end_to_end": end_to_end,
        "layers": layers,
        "counters": counters,
        "extra": {
            "tail_percentile": 90,
            "samples": len(tasks),
            "raw_p50_ms": statistics.median(
                r for s, r in zip(systems, run["raw_seconds"]) if s.schedulable
            ) * 1e3,
            "slowdown": track.median_slowdown(),
            "verdict_ms": statistics.median(verdicts) * 1e3 if verdicts else None,
            "verdicts": len(verdicts),
        },
    }


# ---------------------------------------------------------------------------
# serve_zipf
# ---------------------------------------------------------------------------


def zipf_sequence(population: list, requests: int, rng: random.Random) -> list:
    """``requests`` items, each as often as its zipf share says, in ``rng``'s order.

    Counts are the shares rounded by largest remainder rather than drawn:
    drawn counts move the median with the sample, since the median request
    sits where the fast cached answers give way to the slower ones.
    """
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(population))]
    shares = [requests * weight / sum(weights) for weight in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(len(shares)), key=lambda i: counts[i] - shares[i])
    for index in by_remainder[:requests - sum(counts)]:
        counts[index] += 1
    sequence = [item for item, count in zip(population, counts) for _ in range(count)]
    rng.shuffle(sequence)
    return sequence


def serve_workload(seed: int, seconds: int, tracer, track) -> Dict[str, object]:
    from repro.scheduling.ep import find_all_schedules
    from repro.scheduling.serialize import schedule_fingerprint
    from repro.serve import protocol
    from serve_load import Request, cold_pass
    from systems import corpus_specs, corpus_system, serve_nets

    programs = max(10, round(SERVE_PROGRAMS_PER_S * seconds))
    requests = max(20, round(SERVE_REQUESTS_PER_S * seconds))

    def generate():
        # the population is the same for every seed: which items are hot
        # decides the median, so the seed draws only the request sequence
        specs = corpus_specs(DEFAULT_SEED, programs)
        return serve_nets(), [corpus_system(spec, None) for spec in specs]

    setup, (nets, systems) = timed_setup(generate, track)
    # the serial in-process reference: every program through the whole
    # pipeline (checked against the multi-task simulation), every net through
    # find_all_schedules
    started = time.perf_counter()
    run = run_systems(systems, tracer, track, 1, seed)
    programs = [
        Request(system.name, request_line(system), outcome.fingerprints)
        for system, outcome in zip(systems, run["outcomes"])
    ]
    population = []
    for name, net in nets:
        results = find_all_schedules(net, raise_on_failure=True)
        reference = {s: schedule_fingerprint(r.schedule) for s, r in results.items()}
        line = protocol.encode_line({"op": "schedule", "net": protocol.net_to_dict(net)})
        population.append(Request(name, line, reference))
    track.probe()
    SETUP_PARTS["reference_s"] = track.scaled(started, time.perf_counter())
    setup += SETUP_PARTS["reference_s"]
    # zipf ranks: the nets hot-to-cold in their fixed order, then the
    # programs in their drawn order
    population += programs
    sequence = zipf_sequence(population, requests, random.Random(seed))

    # the same sequence against PASSES fresh daemons: a request's time is the
    # median of its answers, in each of which it met the same cache state
    passes = []
    for _ in range(PASSES):
        cache_dir = fresh_dir("l2")
        try:
            passes.append(cold_pass(ROOT, cache_dir, sequence, track, tracer))
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
    SETUP_PARTS["ready_s"] = statistics.median(p.ready_seconds for p in passes)
    setup += SETUP_PARTS["ready_s"]
    answered = [
        statistics.median(times) for times in zip(*(p.latencies for p in passes))
        if None not in times
    ]
    problems = [problem for p in passes for problem in p.load.problems]
    failed_requests = len(set().union(*(p.load.failed for p in passes)))

    counters = run["counters"]
    end_to_end = {
        "p50_ms": statistics.median(answered) * 1e3,
        "tail_ms": percentile(answered, 99) * 1e3,
        "throughput_per_s": statistics.median(len(sequence) / p.seconds for p in passes),
        "task_cycles": counters.get("task_cycles", 0),
        "task_code_bytes": counters.get("code_bytes", 0),
        "setup_s": setup,
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
    }
    layers = {}
    if tracer.enabled:
        layers = layer_metrics(tracer, run, track.median_slowdown())
        layers["proc.cpu_per_wall"] = (
            sum(p.cpu_seconds for p in passes) / sum(p.load.busy for p in passes)
        )
        layers.update(serve_metrics(passes))
    return {
        "units": run["runs"] + len(sequence) * PASSES,
        "attempted": len(systems) + len(sequence),
        "failed": run["failed"] + failed_requests,
        "problems": run["problems"] + problems,
        "end_to_end": end_to_end,
        "layers": layers,
        "counters": counters,
        "extra": {
            "tail_percentile": 99,
            "samples": len(answered),
            "deciles_ms": [q * 1e3 for q in statistics.quantiles(answered, n=10)],
            "raw_p50_ms": statistics.median(
                statistics.median(t) for t in zip(*(p.raw for p in passes)) if None not in t
            ) * 1e3,
            "slowdown": track.median_slowdown(),
            "pass_slowdowns": [p.slowdown for p in passes],
            "population": len(population),
            "windows": [p.window for p in passes],
        },
    }


# ---------------------------------------------------------------------------
# metadata and the CLI
# ---------------------------------------------------------------------------


def metadata() -> Dict[str, object]:
    """What the numbers were measured on.  BLAS threads are recorded, never pinned."""
    import numpy

    with open("/proc/self/status") as handle:
        threads = next(int(line.split()[1]) for line in handle if line.startswith("Threads:"))
    commit = "unknown"
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = probe.stdout.strip() or commit
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        # OpenBLAS starts its pool when numpy loads and computes on the
        # calling thread too; no other thread runs yet at this point
        "blas_threads": threads,
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "commit": commit,
    }


def span_cost_ms(spans: int) -> float:
    """What recording ``spans`` spans costs, from timing empty ones here."""
    from tracing import Tracer

    probe, count = Tracer(True), 20_000
    started = time.perf_counter()
    for _ in range(count):
        with probe.span("empty"):
            pass
    return (time.perf_counter() - started) / count * spans * 1e3


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=15, help="work is sized to last about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from tracing import Tracer

    meta = metadata()
    tracer, track = Tracer(bool(args.trace)), SpeedTrack()
    if args.workload == "serve_zipf":
        result = serve_workload(args.seed, args.seconds, tracer, track)
    else:
        result = in_process_workload(args.workload, args.seed, args.seconds, tracer, track)
    end_to_end = result["end_to_end"]
    if args.trace:
        metrics = dict(result["layers"])
        metrics.update({UNGATED[name]: end_to_end[name] for name in UNGATED})
        metrics["trace.overhead_ms"] = span_cost_ms(len(tracer.spans)) / result["units"]
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.json")
    else:
        metrics = {name: end_to_end[name] for name in GATED}
    for problem in result["problems"][:20]:
        print(f"FAIL: {problem}", file=sys.stderr)
    attempted, failed = result["attempted"], result["failed"]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "meta": meta,
        "error_rate": failed / attempted,
        "counters": result["counters"],
        "end_to_end": end_to_end,
        "setup_parts": SETUP_PARTS,
        **result["extra"],
    }
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
