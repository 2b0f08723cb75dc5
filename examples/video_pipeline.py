"""The industrial video application of Section 8 (producer / filter /
consumer / controller), end to end.

Run with ``python examples/video_pipeline.py [lines pixels frames]``.

The example builds the four-process network of Figure 18, schedules it into a
single task triggered by ``init``, and compares the synthesized implementation
against the 4-task round-robin baseline: identical outputs, the cycle ratios
of Table 1 and the code sizes of Table 2.
"""

from __future__ import annotations

import sys

from repro.apps.video import VideoAppConfig, build_video_system
from repro.codegen.synthesis import baseline_code_size, synthesize_task, synthesized_code_size
from repro.runtime.simulation import MultiTaskSimulation, SingleTaskSimulation
from repro.scheduling.ep import SchedulerOptions, find_schedule


def main() -> None:
    lines = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    pixels = int(sys.argv[2]) if len(sys.argv) > 2 else 5
    frames = int(sys.argv[3]) if len(sys.argv) > 3 else 10
    config = VideoAppConfig(lines_per_frame=lines, pixels_per_line=pixels)
    print(f"PFC video application: {lines} lines x {pixels} pixels, {frames} frames")

    system = build_video_system(config)
    print(f"linked net: {system.net.stats()}")

    result = find_schedule(
        system.net,
        "src.controller.init",
        options=SchedulerOptions(max_nodes=200_000),
        raise_on_failure=True,
    )
    schedule = result.schedule
    print(
        f"schedule: {len(schedule)} nodes, {len(schedule.await_nodes())} await node(s), "
        f"computed in {result.elapsed_seconds:.1f}s"
    )
    bounds = {}
    for place, bound in schedule.channel_bounds().items():
        channel = system.channel_of_place(place)
        if channel:
            bounds[channel] = bound
    print(f"channel sizes determined by the scheduler: {bounds}")

    stimulus = {"init": [frame % 2 for frame in range(frames)]}
    multi = MultiTaskSimulation(system, channel_capacity=100, stimulus=stimulus).run()
    single = SingleTaskSimulation(
        system, schedules={"src.controller.init": schedule}
    ).run(stimulus)
    assert multi.outputs.by_port == single.outputs.by_port, "implementations must agree"
    print(f"both implementations emitted {len(single.outputs.port('display'))} pixels "
          f"and {len(single.outputs.port('ack'))} acknowledgements, outputs identical")

    print("\nexecution cycles (cost model):")
    for profile in ("pfc", "pfc-O", "pfc-O2"):
        m = multi.cycles(profile)
        s = single.cycles(profile)
        print(f"  {profile:<7} 4 tasks: {m:>12,.0f}   1 task: {s:>12,.0f}   ratio {m / s:.1f}")

    task = synthesize_task(system, schedule)
    print("\ncode size (bytes, communication inlined):")
    for profile in ("pfc", "pfc-O", "pfc-O2"):
        base = baseline_code_size(system, profile=profile)
        single_size = synthesized_code_size(task, system, profile=profile)
        print(
            f"  {profile:<7} 4 tasks total: {base['total']:>6}   1 task: {single_size:>6}   "
            f"ratio {base['total'] / single_size:.1f}"
        )
    print("\nfirst lines of the generated ISR:")
    print("\n".join(task.run_section.splitlines()[:20]))


if __name__ == "__main__":
    main()
