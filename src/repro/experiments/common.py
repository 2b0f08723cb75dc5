"""Shared setup for the PFC (producer / filter / consumer / controller)
experiments of Section 8.2.

The setup (system, schedule, synthesized task) is computed once per
configuration and kept in an ``lru_cache`` over configs, so every experiment
harness and benchmark in one process reuses it; each new configuration runs
the EP search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.apps.video import VideoAppConfig, build_video_system
from repro.codegen.synthesis import SynthesizedTask, synthesize_task
from repro.flowc.linker import LinkedSystem
from repro.runtime.simulation import (
    MultiTaskSimulation,
    SimulationResult,
    SingleTaskSimulation,
)
from repro.scheduling.ep import SchedulerOptions, find_schedule
from repro.scheduling.schedule import Schedule


# Default frame geometry of the paper's experiment: "Frames were made by 10
# lines of 10 pixels each".  Tests use a smaller geometry to stay fast.
PAPER_CONFIG = VideoAppConfig(lines_per_frame=10, pixels_per_line=10)
FAST_CONFIG = VideoAppConfig(lines_per_frame=4, pixels_per_line=5)


@dataclass
class PfcExperimentSetup:
    """Everything the PFC experiments need, computed once."""

    config: VideoAppConfig
    system: LinkedSystem
    schedule: Schedule
    synthesized: SynthesizedTask
    scheduling_seconds: float
    scheduling_tree_nodes: int

    def stimulus(self, frames: int) -> Dict[str, List[int]]:
        """The init event stream for a run of ``frames`` frames."""
        return {"init": [frame % 2 for frame in range(frames)]}

    def channel_capacities(self, buffer_size: int) -> Dict[str, int]:
        """Per-channel FIFO capacities for a nominal buffer size.

        The pixel channels carry one line per producer/consumer transfer, so
        their FIFO must hold at least one line regardless of the nominal
        size (writing a line into a smaller FIFO would block forever); the
        scalar control channels use the nominal size directly.  This mirrors
        the paper's observation that "a buffer size equal or greater than
        [one line] gives a little boost in performance since an entire line
        fits in it".
        """
        line = self.config.pixels_per_line
        capacities: Dict[str, int] = {}
        for channel in self.system.network.channels:
            if "pix" in channel.name.lower():
                capacities[channel.name] = max(buffer_size, line)
            else:
                capacities[channel.name] = max(buffer_size, 1)
        return capacities

    # -- simulations --------------------------------------------------------
    def run_multi_task(self, frames: int, *, buffer_size: int) -> SimulationResult:
        simulation = MultiTaskSimulation(
            self.system,
            channel_capacity=self.channel_capacities(buffer_size),
            stimulus=self.stimulus(frames),
        )
        result = simulation.run()
        if result.events_served < frames:
            raise RuntimeError(
                f"multi-task simulation deadlocked: served {result.events_served} of {frames} frames "
                f"with buffer size {buffer_size}"
            )
        return result

    def run_single_task(self, frames: int) -> SimulationResult:
        simulation = SingleTaskSimulation(
            self.system,
            schedules={self.schedule.source_transition: self.schedule},
        )
        return simulation.run(self.stimulus(frames))

    def measure(
        self,
        implementation: str,
        frames: int,
        *,
        buffer_size: int = 1,
        max_simulated_frames: Optional[int] = None,
    ) -> Tuple[SimulationResult, float]:
        """Run one implementation and return ``(result, frame_scale)``.

        ``max_simulated_frames`` allows large frame counts to be extrapolated
        linearly from a shorter run (per-frame behaviour is identical from the
        second frame on); the returned scale is the factor by which cycle
        counts must be multiplied.  ``None`` simulates every frame.
        """
        simulated = frames
        scale = 1.0
        if max_simulated_frames is not None and frames > max_simulated_frames:
            simulated = max_simulated_frames
            scale = frames / simulated
        if implementation == "multi-task":
            result = self.run_multi_task(simulated, buffer_size=buffer_size)
        elif implementation == "single-task":
            result = self.run_single_task(simulated)
        else:
            raise ValueError(f"unknown implementation {implementation!r}")
        return result, scale


@lru_cache(maxsize=4)
def _cached_setup(config: VideoAppConfig, max_nodes: int) -> PfcExperimentSetup:
    system = build_video_system(config)
    result = find_schedule(
        system.net,
        "src.controller.init",
        options=SchedulerOptions(max_nodes=max_nodes),
        raise_on_failure=True,
    )
    assert result.schedule is not None
    synthesized = synthesize_task(system, result.schedule)
    return PfcExperimentSetup(
        config=config,
        system=system,
        schedule=result.schedule,
        synthesized=synthesized,
        scheduling_seconds=result.elapsed_seconds,
        scheduling_tree_nodes=result.tree_nodes,
    )


def build_pfc_setup(
    config: VideoAppConfig = FAST_CONFIG,
    *,
    max_nodes: int = 100_000,
) -> PfcExperimentSetup:
    """Build (or fetch the cached) experiment setup for a frame geometry.

    ``scheduling_seconds`` reports the wall clock of the EP search that
    built the setup.
    """
    return _cached_setup(config, max_nodes)
