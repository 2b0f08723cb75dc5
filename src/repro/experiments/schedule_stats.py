"""Scheduling statistics of the PFC example (Section 8.2).

The paper states that the proposed algorithm generated "in less than a
minute, a single task with all the channels of unit size".  This experiment
reports the wall-clock scheduling time, the size of the schedule and the
channel bounds determined by it, both for the paper geometry (10x10 pixels)
and for smaller geometries used by the tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict

from repro.apps.video import VideoAppConfig, build_video_system
from repro.scheduling.ep import SchedulerOptions, find_schedule


@dataclass
class ScheduleStats:
    """Summary of one scheduling run of the PFC system."""

    config: VideoAppConfig
    success: bool
    seconds: float
    schedule_nodes: int = 0
    await_nodes: int = 0
    tree_nodes: int = 0
    channel_bounds: Dict[str, int] = field(default_factory=dict)
    tasks_generated: int = 0
    # search counters of the indexed core (fires, enabled scans/updates, ...)
    search_counters: Dict[str, int] = field(default_factory=dict)

    @property
    def all_control_channels_unit_size(self) -> bool:
        """True when every scalar (non-pixel) channel has bound 1."""
        control = {
            name: bound
            for name, bound in self.channel_bounds.items()
            if bound and "pix" not in name.lower()
        }
        return bool(control) and all(bound == 1 for bound in control.values())

    def describe_counters(self) -> str:
        """One-line rendering of the search counters for profiling logs."""
        if not self.search_counters:
            return "no counters recorded"
        return ", ".join(f"{key}={value}" for key, value in self.search_counters.items())


def run_schedule_stats(
    config: VideoAppConfig = VideoAppConfig(4, 5),
    *,
    max_nodes: int = 100_000,
    use_invariant_heuristic: bool = True,
) -> ScheduleStats:
    """Schedule the PFC system and collect the Section 8.2 statistics."""
    system = build_video_system(config)
    options = SchedulerOptions(
        max_nodes=max_nodes, use_invariant_heuristic=use_invariant_heuristic
    )
    start = time.monotonic()
    result = find_schedule(system.net, "src.controller.init", options=options)
    elapsed = time.monotonic() - start
    if not result.success or result.schedule is None:
        return ScheduleStats(
            config=config,
            success=False,
            seconds=elapsed,
            tree_nodes=result.tree_nodes,
            search_counters=result.counters.as_dict(),
        )
    schedule = result.schedule
    bounds: Dict[str, int] = {}
    for place, bound in schedule.channel_bounds().items():
        channel = system.channel_of_place(place)
        if channel is None:
            # environment port places are latched by the framework, not FIFOs
            continue
        bounds[channel] = max(bounds.get(channel, 0), bound)
    return ScheduleStats(
        config=config,
        success=True,
        seconds=elapsed,
        schedule_nodes=len(schedule),
        await_nodes=len(schedule.await_nodes()),
        tree_nodes=result.tree_nodes,
        channel_bounds=bounds,
        tasks_generated=len(system.net.uncontrollable_sources()),
        search_counters=result.counters.as_dict(),
    )


def main() -> None:
    """Print scheduling statistics (with search counters) for the PFC system.

    ``PYTHONPATH=src python -m repro.experiments.schedule_stats`` is the
    quick profiling entry point: run it before and after a change to the
    Petri-net core to catch regressions in fires / enabled-set work per
    schedule.
    """
    for config in (VideoAppConfig(4, 5), VideoAppConfig(10, 10)):
        stats = run_schedule_stats(config)
        geometry = f"{config.lines_per_frame}x{config.pixels_per_line}"
        print(
            f"PFC {geometry}: success={stats.success} {stats.seconds:.3f}s "
            f"schedule={stats.schedule_nodes} await={stats.await_nodes} "
            f"tree={stats.tree_nodes}"
        )
        print(f"  counters: {stats.describe_counters()}")
        print(f"  channel bounds: {stats.channel_bounds}")


if __name__ == "__main__":
    main()
