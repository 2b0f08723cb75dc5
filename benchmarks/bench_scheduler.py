"""Benchmarks of the scheduling algorithm itself.

* E4: the Section 8.2 claim -- the PFC system is scheduled into a single task
  with unit-size control channels in well under a minute.
* Ablation: T-invariant-guided ECS ordering vs. the plain tie-break ordering.

Besides the pytest-benchmark harnesses, the module is a CLI that times the
serial ``find_all_schedules`` path and merges its sections into
``BENCH_scheduler.json`` (``repro.util.merge_report``: the sections other
runs wrote are kept byte for byte, an unreadable report is refused before
the run):

    PYTHONPATH=src python benchmarks/bench_scheduler.py
    PYTHONPATH=src python benchmarks/bench_scheduler.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/bench_scheduler.py --profile

With ``--profile`` each case additionally runs once under :mod:`cProfile`
and the top hot functions (by cumulative time) land in a ``"profile"``
section of the JSON.
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
from repro.util import ReportError, merge_report, read_report

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


def run_cli_bench(
    *,
    quick: bool = False,
    repeats: Optional[int] = None,
    profile: bool = False,
) -> Dict[str, object]:
    repeats = repeats or (1 if quick else 3)
    cases = [
        ("pfc_4x5", build_video_system(VideoAppConfig(4, 5)).net),
        ("multi_source_8x6", random_multi_source_net(8, 6, seed=1)),
    ]
    if not quick:
        cases.insert(1, ("pfc_10x10", build_video_system(VideoAppConfig(10, 10)).net))
    rows = [_bench_case(name, net, repeats=repeats) for name, net in cases]
    profile_rows = [_profile_case(name, net) for name, net in cases] if profile else None
    report: Dict[str, object] = {
        "benchmark": "find_all_schedules: serial EP search",
        "cpu_count": os.cpu_count() or 1,
        "python": sys.version.split()[0],
        "quick": quick,
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
    try:
        read_report(Path(args.output))
    except ReportError as error:
        print(f"ERROR: {error}; nothing run", file=sys.stderr)
        return 2
    report = run_cli_bench(quick=args.quick, repeats=args.repeats, profile=args.profile)
    try:
        merge_report(Path(args.output), report)
    except ReportError as error:
        print(f"ERROR: {error}; not written", file=sys.stderr)
        return 2
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
