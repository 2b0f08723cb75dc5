"""Pinned simulator counters: the exact accounting of both simulators.

``tests/golden/runtime/sim_counters.json`` maps each pinned system to the
counters of its two implementations, the round-robin baseline
(:class:`~repro.runtime.simulation.MultiTaskSimulation`) and the synthesized
task (:class:`~repro.runtime.simulation.SingleTaskSimulation`): every
:class:`~repro.flowc.interpreter.OperationCounter` and
:class:`~repro.runtime.channels.CommunicationStats` field, the scalar counters
of :class:`~repro.runtime.simulation.SimulationResult` and its ``cycles("pfc")``
total.  The systems are the 28 corpus specs of
``generate_corpus(4 * len(FAMILIES))``, the PFC system of Figure 18 at 4x5 and
the divisors example of Figure 1.

Every counter follows from the FlowC code, the schedule and the stimulus, so
the pin catches a drift in the interpreter's operation counting, in the
communication accounting, in the schedules and in the corpus generator's
stream.  ``tests/test_sim_counters.py`` diffs it.  Regenerate it only for an
intended change of the accounting::

    PYTHONPATH=src python tests/sim_counters.py
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Iterator, Mapping, Sequence, Tuple

from repro.apps.divisors import build_divisors_system
from repro.apps.video import VideoAppConfig, build_video_system
from repro.corpus.differential import MAX_NODES
from repro.corpus.generator import FAMILIES, generate_corpus
from repro.corpus.topologies import build_case
from repro.flowc.linker import LinkedSystem, link
from repro.runtime.simulation import (
    MultiTaskSimulation,
    SimulationResult,
    SingleTaskSimulation,
)
from repro.scheduling.ep import SchedulerOptions, find_all_schedules

FIXTURE = Path(__file__).parent / "golden" / "runtime" / "sim_counters.json"

#: the scalar counters of a SimulationResult
SCALARS = (
    "context_switches",
    "scheduler_decisions",
    "isr_dispatches",
    "state_updates",
    "transitions_executed",
    "events_served",
)

#: frames of the PFC run and their ``init`` values
PFC_STIMULUS = {"init": [frame % 2 for frame in range(4)]}
DIVISORS_STIMULUS = {"in": [12, 7, 36, 13]}

#: (name, linked system, sources, stimulus, multi-task FIFO capacities, max_nodes)
Case = Tuple[str, LinkedSystem, Sequence[str], Mapping[str, Sequence[int]], object, int]


def cases() -> Iterator[Case]:
    """The pinned systems, in fixture order."""
    for spec in generate_corpus(4 * len(FAMILIES)):
        case = build_case(spec)
        manifest = case.manifest
        yield (
            spec.label(),
            link(case.network),
            manifest["source_transitions"],
            manifest["stimulus"],
            None,
            MAX_NODES,
        )
    config = VideoAppConfig(lines_per_frame=4, pixels_per_line=5)
    pfc = build_video_system(config)
    # pixel FIFOs hold one line, control FIFOs one item (buffer size 1)
    capacity = {
        channel.name: config.pixels_per_line if "pix" in channel.name.lower() else 1
        for channel in pfc.network.channels
    }
    yield ("pfc_4x5", pfc, ["src.controller.init"], PFC_STIMULUS, capacity, 100_000)
    yield ("divisors", build_divisors_system(), ["src.divisors.in"], DIVISORS_STIMULUS, 4, 200_000)


def result_counters(result: SimulationResult) -> Dict[str, object]:
    """Every exact counter of one simulation run."""
    counters: Dict[str, object] = {
        "operations": asdict(result.operations),
        "communication": asdict(result.communication),
    }
    for name in SCALARS:
        counters[name] = getattr(result, name)
    counters["cycles_pfc"] = result.cycles("pfc")
    return counters


def simulate(case: Case) -> Dict[str, object]:
    """Both simulators' counters on one pinned system."""
    _name, linked, sources, stimulus, capacity, max_nodes = case
    results = find_all_schedules(
        linked.net, options=SchedulerOptions(max_nodes=max_nodes), sources=list(sources)
    )
    schedules = {}
    for source, result in results.items():
        assert result.success, (source, result.failure_reason)
        schedules[source] = result.schedule
    multi = MultiTaskSimulation(linked, channel_capacity=capacity, stimulus=stimulus).run()
    single = SingleTaskSimulation(linked, schedules=schedules).run(stimulus)
    return {"multi": result_counters(multi), "single": result_counters(single)}


def main() -> None:
    counters = {case[0]: simulate(case) for case in cases()}
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(counters, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE} ({len(counters)} systems)")


if __name__ == "__main__":
    main()
