"""Benchmarks of the scheduling algorithm itself.

* E4: the Section 8.2 claim -- the PFC system is scheduled into a single task
  with unit-size control channels in well under a minute.
* Ablation: T-invariant-guided ECS ordering vs. the plain tie-break ordering.

Besides the pytest-benchmark harnesses, the module is a CLI that times the
serial ``find_all_schedules`` path and merges its sections into
``BENCH_scheduler.json`` (``reports.merge_report``: the sections other runs
wrote are kept byte for byte, an unreadable report is refused):

    PYTHONPATH=src python benchmarks/bench_scheduler.py
    PYTHONPATH=src python benchmarks/bench_scheduler.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/bench_scheduler.py --profile

With ``--profile`` each case additionally runs once under :mod:`cProfile`
and the top hot functions (by cumulative time) land in a ``"profile"``
section of the JSON.

With ``--cache`` the persistent artifact cache (:mod:`repro.cache`) is
activated first and a cache phase per case records the end-to-end scheduling
wall clock of *this process* plus the pure disk-replay time (L1 dropped).
Run the command twice to get the cold-process vs. warm-process comparison:
the first run's JSON reports ``"mode": "cold"`` (search + persist), the
second ``"mode": "warm"`` (zero EP search work, disk replay only).  The
regular timings are always measured with the cache deactivated so they stay
comparable across runs.

    PYTHONPATH=src python benchmarks/bench_scheduler.py --quick --cache
    PYTHONPATH=src python benchmarks/bench_scheduler.py --quick --cache   # warm
    PYTHONPATH=src python benchmarks/bench_scheduler.py --cache-clear --cache
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.apps.divisors import build_divisors_system
from repro.apps.video import VideoAppConfig, build_video_system
from repro.apps.workloads import random_multi_source_net
from repro.experiments.schedule_stats import run_schedule_stats
from repro.scheduling.ep import SchedulerOptions, find_all_schedules, find_schedule
from repro.scheduling.serialize import schedule_to_json
from reports import ReportError, merge_report

BENCH_CONFIG = VideoAppConfig(lines_per_frame=4, pixels_per_line=5)


def test_pfc_scheduling_time(benchmark, capsys):
    stats = benchmark.pedantic(
        run_schedule_stats, args=(BENCH_CONFIG,), rounds=1, iterations=1
    )
    with capsys.disabled():
        print()
        print(
            f"PFC scheduling: {stats.schedule_nodes} schedule nodes, "
            f"{stats.await_nodes} await node(s), tree={stats.tree_nodes}, "
            f"{stats.seconds:.2f}s, channel bounds={stats.channel_bounds}"
        )
        print(f"  search counters: {stats.describe_counters()}")
        print("  [paper: a single task, all channels of unit size, in less than a minute]")
    assert stats.success
    assert stats.await_nodes == 1
    assert stats.all_control_channels_unit_size
    assert stats.seconds < 60.0


def test_scheduler_heuristic_ablation(benchmark, capsys):
    system = build_video_system(BENCH_CONFIG)

    def schedule_with(use_invariants: bool):
        return find_schedule(
            system.net,
            "src.controller.init",
            options=SchedulerOptions(use_invariant_heuristic=use_invariants, max_nodes=100_000),
            raise_on_failure=True,
        )

    guided = benchmark.pedantic(schedule_with, args=(True,), rounds=1, iterations=1)
    plain = schedule_with(False)
    with capsys.disabled():
        print()
        print(
            "ECS ordering ablation (PFC): "
            f"invariant-guided tree={guided.tree_nodes}, "
            f"tie-break only tree={plain.tree_nodes}"
        )
    assert guided.success and plain.success


def test_divisors_scheduling(benchmark):
    system = build_divisors_system()
    result = benchmark.pedantic(
        find_schedule,
        args=(system.net, "src.divisors.in"),
        kwargs={"raise_on_failure": True},
        rounds=3,
        iterations=1,
    )
    assert result.success


# ---------------------------------------------------------------------------
# CLI: serial find_all_schedules timings -> BENCH_scheduler.json
# ---------------------------------------------------------------------------


def _results_signature(results) -> Dict[str, Optional[str]]:
    return {
        source: (schedule_to_json(r.schedule) if r.schedule else None)
        for source, r in results.items()
    }


def _bench_case(name, net, *, repeats: int) -> Dict[str, object]:
    """Best-of-``repeats`` wall clock of the serial search.

    Every repeat must produce byte-identical schedules --
    ``identical_schedules`` records the cross-check.
    """
    times: List[float] = []
    signatures = []
    results = {}
    for _ in range(repeats):
        start = time.monotonic()
        results = find_all_schedules(net)
        times.append(time.monotonic() - start)
        signatures.append(_results_signature(results))
    return {
        "case": name,
        "sources": len(results),
        "repeats": repeats,
        "serial_seconds": round(min(times), 4),
        "identical_schedules": all(sig == signatures[0] for sig in signatures),
    }


# ---------------------------------------------------------------------------
# --profile: the cProfile hot-function table
# ---------------------------------------------------------------------------

PROFILE_TOP_N = 15


def _profile_case(name: str, net) -> Dict[str, object]:
    """One profiled serial ``find_all_schedules`` run.

    Returns the top :data:`PROFILE_TOP_N` functions by cumulative time --
    the table that identifies where the search actually spends its wall
    clock.
    """
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    find_all_schedules(net)
    profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    top = []
    for func in stats.fcn_list[:PROFILE_TOP_N]:  # (file, line, name)
        cc, ncalls, tottime, cumtime, _callers = stats.stats[func]
        filename, line, func_name = func
        top.append(
            {
                "function": func_name,
                "file": os.path.basename(filename) if filename else filename,
                "line": line,
                "calls": ncalls,
                "primitive_calls": cc,
                "total_seconds": round(tottime, 6),
                "cumulative_seconds": round(cumtime, 6),
            }
        )
    return {"case": name, "top": top}


def _cache_case(name: str, net) -> Dict[str, object]:
    """Time one case's cache-active scheduling path (cold or warm process).

    ``process_seconds`` is what this process paid end to end (search +
    persist when cold, validated disk replay when warm);
    ``disk_replay_seconds`` re-times the workload with the in-memory L1
    dropped, i.e. the cost a *fresh* process would pay now that the disk is
    hot.  Replays are asserted byte-identical to the first pass.
    """
    from repro.scheduling.warmstart import GLOBAL_SCHEDULE_CACHE

    GLOBAL_SCHEDULE_CACHE.drop_memory()
    start = time.monotonic()
    first = find_all_schedules(net)
    process_seconds = time.monotonic() - start
    replayed = sum(1 for r in first.values() if r.from_cache)
    mode = (
        "warm"
        if replayed == len(first)
        else ("cold" if replayed == 0 else "mixed")
    )
    GLOBAL_SCHEDULE_CACHE.drop_memory()
    start = time.monotonic()
    again = find_all_schedules(net)
    disk_replay_seconds = time.monotonic() - start
    return {
        "case": name,
        "sources": len(first),
        "mode": mode,
        "replayed_from_disk": replayed,
        "process_seconds": round(process_seconds, 4),
        "disk_replay_seconds": round(disk_replay_seconds, 4),
        "replay_identical": _results_signature(first) == _results_signature(again),
    }


def _run_cache_phase(
    cases, *, cache_dir: Optional[str], cache_clear: bool
) -> Dict[str, object]:
    """Activate the persistent cache, time every case through it, report.

    Deactivates the cache before returning so the regular timing loop is
    never polluted by replays.
    """
    import repro.cache as artifact_cache
    from repro.scheduling.warmstart import GLOBAL_SCHEDULE_CACHE, LIVE_SEARCH_COUNTERS

    previous = artifact_cache.active_store()
    store = artifact_cache.activate(path=cache_dir)
    if cache_clear:
        store.clear()
    entries_before = len(store.entries())
    rows = [_cache_case(name, net) for name, net in cases]
    entries_after = len(store.entries())
    warmstart_stats = GLOBAL_SCHEDULE_CACHE.stats.as_dict()
    info = {
        "enabled": True,
        "location": store.describe(),
        "backend": store.backend_name,
        "schema_version": artifact_cache.SCHEMA_VERSION,
        "entries_before": entries_before,
        "entries_after": entries_after,
        "warmstart": warmstart_stats,
        "disk_hits": warmstart_stats["disk_hits"],
        "live_search_nodes_expanded": LIVE_SEARCH_COUNTERS.nodes_expanded,
        "warm_process": all(row["mode"] == "warm" for row in rows),
        "store": store.stats.as_dict(),
        "cases": rows,
    }
    # hand back whatever store was active before the phase (a caller's
    # explicit activate() must survive run_cli_bench), closing only our own
    store.close()
    if previous is not None and previous is not store:
        artifact_cache.activate(store=previous)
    else:
        artifact_cache.deactivate()
    GLOBAL_SCHEDULE_CACHE.drop_memory()
    return info


def run_cli_bench(
    *,
    quick: bool = False,
    repeats: Optional[int] = None,
    cache: bool = False,
    cache_dir: Optional[str] = None,
    cache_clear: bool = False,
    profile: bool = False,
) -> Dict[str, object]:
    repeats = repeats or (1 if quick else 3)
    cases = [
        ("pfc_4x5", build_video_system(VideoAppConfig(4, 5)).net),
        ("multi_source_8x6", random_multi_source_net(8, 6, seed=1)),
    ]
    if not quick:
        cases.insert(1, ("pfc_10x10", build_video_system(VideoAppConfig(10, 10)).net))
    import repro.cache as artifact_cache

    cache_info: Dict[str, object] = {"enabled": False}
    if cache:
        cache_info = _run_cache_phase(cases, cache_dir=cache_dir, cache_clear=cache_clear)
    elif cache_clear:
        # honour --cache-clear on its own: wipe the store without timing it
        store = artifact_cache.open_store(cache_dir)
        store.clear()
        store.close()
    # The timing loop must always measure real EP searches: hide any active
    # cache (REPRO_CACHE=1 from the environment, or a caller's activate())
    # for its duration -- replays would report near-zero "search" times --
    # and restore it afterwards.
    with artifact_cache.suspended():
        rows = [_bench_case(name, net, repeats=repeats) for name, net in cases]
        profile_rows = [_profile_case(name, net) for name, net in cases] if profile else None
    report: Dict[str, object] = {
        "benchmark": "find_all_schedules: serial EP search",
        "cpu_count": os.cpu_count() or 1,
        "python": sys.version.split()[0],
        "quick": quick,
        "cache": cache_info,
        "cases": rows,
    }
    if profile_rows is not None:
        report["profile"] = {"top_n": PROFILE_TOP_N, "cases": profile_rows}
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Time the serial find_all_schedules path, emit JSON."
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: skip the 10x10 geometry (runs pfc_4x5 and "
        "multi_source_8x6), one repeat",
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="override best-of repeat count"
    )
    parser.add_argument(
        "--cache",
        action="store_true",
        help="activate the persistent artifact cache (.cache/repro or "
        "$REPRO_CACHE_DIR) and record cold/warm process timings",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="force the cache off even if REPRO_CACHE is set in the environment",
    )
    parser.add_argument(
        "--cache-clear",
        action="store_true",
        help="clear the persistent cache before the run (implies nothing else)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory for --cache (default: $REPRO_CACHE_DIR or .cache/repro)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="additionally run each case once under cProfile and record the "
        "top hot functions in a 'profile' section of the JSON",
    )
    parser.add_argument(
        "--output",
        default="BENCH_scheduler.json",
        help="JSON report to merge this run's sections into "
        "(default: ./BENCH_scheduler.json)",
    )
    args = parser.parse_args(argv)
    if args.no_cache:
        import repro.cache as artifact_cache

        artifact_cache.deactivate()
    report = run_cli_bench(
        quick=args.quick,
        repeats=args.repeats,
        cache=args.cache and not args.no_cache,
        cache_dir=args.cache_dir,
        cache_clear=args.cache_clear,
        profile=args.profile,
    )
    try:
        merge_report(Path(args.output), report)
    except ReportError as error:
        print(f"ERROR: {error}; not written", file=sys.stderr)
        return 2
    cache_info = report["cache"]
    if cache_info["enabled"]:
        for row in cache_info["cases"]:
            print(
                f"cache {row['case']:<18} mode={row['mode']:<5} "
                f"process={row['process_seconds']:.3f}s "
                f"disk_replay={row['disk_replay_seconds']:.3f}s "
                f"identical={row['replay_identical']}"
            )
        print(
            f"cache store {cache_info['location']}: "
            f"{cache_info['entries_after']} entries, "
            f"disk_hits={cache_info['disk_hits']}, "
            f"warm_process={cache_info['warm_process']}"
        )
    for row in report["cases"]:
        print(
            f"{row['case']:<18} sources={row['sources']:<3} "
            f"serial={row['serial_seconds']:.3f}s "
            f"identical={row['identical_schedules']}"
        )
    if "profile" in report:
        for entry in report["profile"]["cases"]:
            hottest = entry["top"][0] if entry["top"] else None
            if hottest:
                print(
                    f"profile {entry['case']:<14} "
                    f"hottest={hottest['function']} "
                    f"cum={hottest['cumulative_seconds']:.3f}s"
                )
    print(f"wrote {args.output}")
    if not all(row["identical_schedules"] for row in report["cases"]):
        print("ERROR: schedules diverge across repeats", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
