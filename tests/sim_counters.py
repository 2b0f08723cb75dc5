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
stream.  ``tests/test_sim_counters.py`` diffs it.

``tests/golden/runtime/sim_sweep_sha256.json`` pins a wider sweep more
coarsely: for every 5th spec of the 3,000-spec corpus pool and PFC at six
geometries, one sha256 per implementation over its counters, its outputs and
its channel occupancies.  A ``slow`` test diffs it.  Regenerate both only for
an intended change of the accounting::

    PYTHONPATH=src python tests/sim_counters.py
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Iterator, Mapping, Sequence, Tuple

from repro.apps.divisors import build_divisors_system
from repro.apps.video import VideoAppConfig, build_video_system
from repro.corpus.differential import MAX_NODES
from repro.corpus.generator import FAMILIES, ScenarioSpec, generate_corpus, generate_spec
from repro.corpus.topologies import build_case
from repro.flowc.linker import LinkedSystem, link
from repro.runtime.simulation import (
    MultiTaskSimulation,
    SimulationResult,
    SingleTaskSimulation,
)
from repro.scheduling.ep import SchedulerOptions, find_all_schedules

FIXTURE = Path(__file__).parent / "golden" / "runtime" / "sim_counters.json"
SWEEP_FIXTURE = FIXTURE.with_name("sim_sweep_sha256.json")

#: the scalar counters of a SimulationResult
SCALARS = (
    "context_switches",
    "scheduler_decisions",
    "isr_dispatches",
    "state_updates",
    "transitions_executed",
    "events_served",
)

#: the two implementations: the round-robin baseline and the synthesized task
SIDES = ("multi", "single")

#: frames of the PFC run and their ``init`` values
PFC_STIMULUS = {"init": [frame % 2 for frame in range(4)]}
DIVISORS_STIMULUS = {"in": [12, 7, 36, 13]}

#: (name, linked system, sources, stimulus, multi-task FIFO capacities, max_nodes)
Case = Tuple[str, LinkedSystem, Sequence[str], Mapping[str, Sequence[int]], object, int]


#: the PFC geometries (lines, pixels) of the sweep
SWEEP_PFC = ((2, 2), (3, 7), (4, 5), (6, 9), (10, 10), (11, 11))


def _corpus_case(spec: ScenarioSpec) -> Case:
    case = build_case(spec)
    manifest = case.manifest
    return (
        spec.label(),
        link(case.network),
        manifest["source_transitions"],
        manifest["stimulus"],
        None,
        MAX_NODES,
    )


def _pfc_case(lines: int, pixels: int) -> Case:
    config = VideoAppConfig(lines_per_frame=lines, pixels_per_line=pixels)
    pfc = build_video_system(config)
    # pixel FIFOs hold one line, control FIFOs one item (buffer size 1)
    capacity = {
        channel.name: pixels if "pix" in channel.name.lower() else 1
        for channel in pfc.network.channels
    }
    return (f"pfc_{lines}x{pixels}", pfc, ["src.controller.init"], PFC_STIMULUS, capacity, 100_000)


def cases() -> Iterator[Case]:
    """The pinned systems, in fixture order."""
    for spec in generate_corpus(4 * len(FAMILIES)):
        yield _corpus_case(spec)
    yield _pfc_case(4, 5)
    yield ("divisors", build_divisors_system(), ["src.divisors.in"], DIVISORS_STIMULUS, 4, 200_000)


def sweep_cases() -> Iterator[Case]:
    """The systems of the sweep: every 5th pool spec, then PFC."""
    for seed in range(0, 3000, 5):
        yield _corpus_case(generate_spec(seed))
    for lines, pixels in SWEEP_PFC:
        yield _pfc_case(lines, pixels)


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


def run_side(case: Case, side: str) -> SimulationResult:
    """One implementation (``"multi"`` or ``"single"``) run on one system."""
    _name, linked, sources, stimulus, capacity, max_nodes = case
    if side == "multi":
        return MultiTaskSimulation(linked, channel_capacity=capacity, stimulus=stimulus).run()
    results = find_all_schedules(
        linked.net, options=SchedulerOptions(max_nodes=max_nodes), sources=list(sources)
    )
    schedules = {}
    for source, result in results.items():
        assert result.success, (source, result.failure_reason)
        schedules[source] = result.schedule
    return SingleTaskSimulation(linked, schedules=schedules).run(stimulus)


def simulate(case: Case) -> Dict[str, object]:
    """Both simulators' counters on one pinned system."""
    return {side: result_counters(run_side(case, side)) for side in SIDES}


def digest(result: SimulationResult) -> str:
    """One sha256 over a run's counters, outputs and channel occupancies."""
    record = {
        "counters": result_counters(result),
        "outputs": result.outputs.by_port,
        "occupancy": result.channel_max_occupancy,
    }
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


def sweep(side: str) -> Dict[str, str]:
    """The digest of one implementation on every system of the sweep."""
    return {case[0]: digest(run_side(case, side)) for case in sweep_cases()}


def _write(path: Path, content: object) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(content, indent=1, sort_keys=True) + "\n")


def main() -> None:
    counters = {case[0]: simulate(case) for case in cases()}
    _write(FIXTURE, counters)
    print(f"wrote {FIXTURE} ({len(counters)} systems)")
    digests = {side: sweep(side) for side in SIDES}
    _write(SWEEP_FIXTURE, digests)
    print(f"wrote {SWEEP_FIXTURE} ({len(digests['multi'])} systems)")


if __name__ == "__main__":
    main()
