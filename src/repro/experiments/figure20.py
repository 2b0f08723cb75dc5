"""Figure 20: execution time of the 4-task implementation vs. FIFO size,
compared against the synthesized single task.

The paper plots, for 10 transmitted frames, the clock cycles of the 4-process
round-robin implementation as a function of the channel buffer size (one line
per compiler option), with the single-task implementation appearing as three
points in the lower-left corner (it always uses the one-place buffers computed
by the scheduler).  Larger buffers help the 4-task version (fewer context
switches) but never close the gap; the single task wins by roughly 4-10x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.experiments.common import FAST_CONFIG, PfcExperimentSetup, build_pfc_setup
from repro.apps.video import VideoAppConfig

DEFAULT_BUFFER_SIZES = (1, 2, 5, 10, 20, 50, 100)
DEFAULT_PROFILES = ("pfc", "pfc-O", "pfc-O2")
DEFAULT_FRAMES = 10


@dataclass
class Figure20Point:
    """One point of the figure."""

    implementation: str  # "multi-task" or "single-task"
    profile: str
    buffer_size: int
    frames: int
    cycles: float
    context_switches: int

    def as_dict(self) -> Dict[str, object]:
        return {
            "implementation": self.implementation,
            "profile": self.profile,
            "buffer_size": self.buffer_size,
            "frames": self.frames,
            "cycles": self.cycles,
            "context_switches": self.context_switches,
        }


def run_figure20(
    *,
    config: VideoAppConfig = FAST_CONFIG,
    frames: int = DEFAULT_FRAMES,
    buffer_sizes: Sequence[int] = DEFAULT_BUFFER_SIZES,
    profiles: Sequence[str] = DEFAULT_PROFILES,
    setup: Optional[PfcExperimentSetup] = None,
) -> List[Figure20Point]:
    """Regenerate the data of Figure 20."""
    setup = setup or build_pfc_setup(config)
    points: List[Figure20Point] = []
    for buffer_size in buffer_sizes:
        result = setup.run_multi_task(frames, buffer_size=buffer_size)
        for profile in profiles:
            points.append(
                Figure20Point(
                    implementation="multi-task",
                    profile=profile,
                    buffer_size=buffer_size,
                    frames=frames,
                    cycles=result.cycles(profile),
                    context_switches=result.context_switches,
                )
            )
    single = setup.run_single_task(frames)
    single_buffer = max(single.channel_max_occupancy.values() or [1])
    for profile in profiles:
        points.append(
            Figure20Point(
                implementation="single-task",
                profile=profile,
                buffer_size=single_buffer,
                frames=frames,
                cycles=single.cycles(profile),
                context_switches=0,
            )
        )
    return points


def format_figure20(points: Sequence[Figure20Point]) -> str:
    """Text rendering of the figure data (one series per profile)."""
    lines = ["Figure 20: execution cycles vs. channel buffer size"]
    profiles = sorted({point.profile for point in points})
    for profile in profiles:
        lines.append(f"  series {profile} (4-task implementation):")
        for point in points:
            if point.profile != profile or point.implementation != "multi-task":
                continue
            lines.append(
                f"    buffers={point.buffer_size:>4}  cycles={point.cycles:>12,.0f}  "
                f"ctx-switches={point.context_switches}"
            )
        for point in points:
            if point.profile != profile or point.implementation != "single-task":
                continue
            lines.append(
                f"    single task (buffers={point.buffer_size}): cycles={point.cycles:>12,.0f}"
            )
    multi_best = {
        profile: min(
            point.cycles
            for point in points
            if point.profile == profile and point.implementation == "multi-task"
        )
        for profile in profiles
    }
    for profile in profiles:
        single = next(
            point.cycles
            for point in points
            if point.profile == profile and point.implementation == "single-task"
        )
        lines.append(
            f"  speed-up of the single task over the best 4-task point ({profile}): "
            f"{multi_best[profile] / single:.1f}x"
        )
    return "\n".join(lines)


def speedup_by_profile(points: Sequence[Figure20Point]) -> Dict[str, float]:
    """Single-task speed-up over the *best* multi-task configuration."""
    result: Dict[str, float] = {}
    for profile in {point.profile for point in points}:
        multi = [
            p.cycles
            for p in points
            if p.profile == profile and p.implementation == "multi-task"
        ]
        single = [
            p.cycles
            for p in points
            if p.profile == profile and p.implementation == "single-task"
        ]
        if multi and single:
            result[profile] = min(multi) / single[0]
    return result
