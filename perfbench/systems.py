"""Inputs of the benchmark and the pipeline each one travels.

Every system is a FlowC program plus its netlist, in the same JSON shape the
scheduling daemon accepts as a ``"flowc"`` request (program, channels,
inputs, outputs).  The in-process pipeline takes it from FlowC text to a
simulated single task, one public library call per span:

    parse_program -> link -> StructuralAnalysis.of -> t_invariant_basis
    -> find_schedule (per source, sharing the analysis)
    -> synthesize_task -> synthesized_code_size -> SingleTaskSimulation

The multi-task simulation then runs outside the timed region as the
reference every single-task output is checked against.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.apps import paper_nets
from repro.apps.video import VideoAppConfig, video_flowc_source
from repro.apps.workloads import random_choice_net, random_marked_graph, random_multi_source_net
from repro.codegen.synthesis import synthesize_task, synthesized_code_size
from repro.corpus.differential import trace_diff
from repro.corpus.generator import FAMILIES, generate_spec, make_unschedulable_spec
from repro.corpus.topologies import (
    ScenarioSpec,
    emit_program,
    expected_schedulable,
    output_port,
    stimulus_for,
    trigger_port,
)
from repro.flowc.linker import LinkedSystem, link
from repro.flowc.netlist import Network
from repro.flowc.parser import parse_program
from repro.petrinet.analysis import StructuralAnalysis
from repro.petrinet.invariants import t_invariant_basis
from repro.runtime.channels import TraceRecorder, TracingSink
from repro.runtime.simulation import MultiTaskSimulation, SingleTaskSimulation
from repro.scheduling.ep import SchedulerOptions, find_schedule
from repro.scheduling.serialize import schedule_fingerprint

from tracing import Tracer

#: EP node budget of the corpus differential harness (``corpus_mix``).
CORPUS_MAX_NODES = 20_000

#: Generated corpus systems are drawn from ``generate_spec(s)`` for the spec
#: seeds ``s`` below this (the family cycles with ``s``).  Every one of them
#: goes through ``run_pipeline`` at CORPUS_MAX_NODES and passes ``check``.
#: Not every generated spec does: ``generate_spec(539, "layered")``, which
#: ``generate_corpus`` makes for some seeds, exceeds the node budget.
CORPUS_POOL = 3000

#: Frames each PFC system is simulated for.
PFC_FRAMES = 4

#: The frame geometries of ``pfc_sweep``: lines x pixels around the paper's
#: 10x10, each structurally distinct.
PFC_GRID = [(lines, pixels) for lines in range(2, 12) for pixels in range(2, 12)]


@dataclass
class SystemInput:
    """One system: its FlowC request, stimulus and expected verdict."""

    name: str
    flowc: Dict[str, object]
    stimulus: Dict[str, List[int]]
    schedulable: bool = True
    max_nodes: Optional[int] = None
    #: FIFO capacities of the multi-task reference (None: channel bounds)
    capacity: Optional[Dict[str, int]] = None

    def options(self) -> SchedulerOptions:
        if self.max_nodes is None:
            return SchedulerOptions()
        return SchedulerOptions(max_nodes=self.max_nodes)

    def wire_options(self) -> Optional[Dict[str, int]]:
        return None if self.max_nodes is None else {"max_nodes": self.max_nodes}


@dataclass
class Outcome:
    """What one system's pipeline produced, with its exact counters."""

    seconds: float
    schedulable: bool
    linked: LinkedSystem
    fingerprints: Dict[str, str] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    single: object = None
    single_trace: Optional[TraceRecorder] = None


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------


def _ref(process: str, port: str) -> str:
    return f"{process}.{port}"


def pfc_system(lines: int, pixels: int, rng: random.Random) -> SystemInput:
    """The Figure 18 system at one frame geometry (wiring of apps.video)."""
    channels = [
        ("controller", "req", "producer", "req", "Req"),
        ("controller", "coeff", "filter", "coeff", "Coeff"),
        ("producer", "pix", "filter", "pix", "Pixels1"),
        ("filter", "outpix", "consumer", "inpix", "Pixels2"),
        ("consumer", "ack", "controller", "ack", "Ack"),
    ]
    flowc = {
        "name": f"pfc_{lines}x{pixels}",
        "program": video_flowc_source(VideoAppConfig(lines, pixels)),
        "channels": [
            {"source": _ref(sp, so), "target": _ref(tp, to), "name": name}
            for sp, so, tp, to, name in channels
        ],
        "inputs": [{"port": "controller.init"}],
        "outputs": [{"port": "consumer.display", "rate": pixels}],
    }
    # pixel FIFOs hold one line, control FIFOs one item (buffer size 1 of
    # the paper's experiment, as in repro.experiments.common)
    capacity = {name: (pixels if "Pixels" in name else 1) for *_, name in channels}
    return SystemInput(
        name=flowc["name"],
        flowc=flowc,
        stimulus={"init": [rng.randint(0, 1) for _ in range(PFC_FRAMES)]},
        capacity=capacity,
    )


def corpus_system(spec: ScenarioSpec, max_nodes: Optional[int]) -> SystemInput:
    """A generated corpus scenario, wired as in ``corpus.topologies``."""
    channels = []
    for sub in spec.subsystems:
        for edge in sub.edges:
            channel = {
                "source": _ref(edge.source, f"o_{edge.name}"),
                "target": _ref(edge.target, f"i_{edge.name}"),
                "name": edge.name,
            }
            if edge.bound is not None:
                channel["bound"] = edge.bound
            channels.append(channel)
    sources = {edge.source for sub in spec.subsystems for edge in sub.edges if not edge.feedback}
    outputs = [
        {"port": _ref(proc.name, output_port(proc.name))}
        for sub in spec.subsystems
        for proc in sub.processes
        if proc.name not in sources
    ]
    flowc = {
        "name": spec.label(),
        "program": emit_program(spec),
        "channels": channels,
        "inputs": [{"port": _ref(sub.trigger, trigger_port(sub.trigger))} for sub in spec.subsystems],
        "outputs": outputs,
    }
    return SystemInput(
        name=spec.label(),
        flowc=flowc,
        stimulus=stimulus_for(spec),
        schedulable=expected_schedulable(spec),
        max_nodes=max_nodes,
    )


def pfc_inputs(seed: int, count: int) -> List[SystemInput]:
    """``count`` geometries of the grid in a seeded order."""
    rng = random.Random(seed)
    grid = list(PFC_GRID)
    rng.shuffle(grid)
    return [pfc_system(lines, pixels, rng) for lines, pixels in grid[:count]]


def corpus_specs(seed: int, count: int) -> List[ScenarioSpec]:
    """``count`` distinct specs of the pool drawn by the seed, cycling all
    families as ``generate_corpus`` does."""
    rng, k = random.Random(seed), len(FAMILIES)
    drawn = []
    for family in range(k):
        members = range(family, CORPUS_POOL, k)
        drawn.append(rng.sample(members, len(members)))
    count = min(count, k * min(map(len, drawn)))
    return [generate_spec(drawn[i % k][i // k]) for i in range(count)]


def corpus_inputs(seed: int, count: int, unschedulable: int) -> List[SystemInput]:
    """``count`` generated systems cycling all families, then the Figure 4b
    specs, shuffled together by the seed."""
    systems = [corpus_system(spec, CORPUS_MAX_NODES) for spec in corpus_specs(seed, count)]
    systems += [
        corpus_system(make_unschedulable_spec(seed + index), CORPUS_MAX_NODES)
        for index in range(unschedulable)
    ]
    random.Random(seed).shuffle(systems)
    return systems


def serve_nets() -> List[tuple]:
    """The 14 pre-linked nets of ``benchmarks/bench_serve.py``, by name."""
    return [
        ("figure_5", paper_nets.figure_5()),
        ("figure_4a", paper_nets.figure_4a()),
        ("figure_6", paper_nets.figure_6()),
        ("figure_8", paper_nets.figure_8()),
        ("rmg_12", random_marked_graph(12, seed=9)),
        ("figure_7_k3", paper_nets.figure_7(3)),
        ("figure_7_k6", paper_nets.figure_7(6)),
        ("rmg_8", random_marked_graph(8, seed=1)),
        ("rmg_16", random_marked_graph(16, seed=2)),
        ("rmg_24", random_marked_graph(24, seed=3)),
        ("choice_3", random_choice_net(3, seed=4)),
        ("choice_5", random_choice_net(5, seed=5)),
        ("multi_2x10", random_multi_source_net(2, 10, seed=6)),
        ("multi_4x30", random_multi_source_net(4, 30, seed=7)),
    ]


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------


def assemble(flowc: Dict[str, object], processes: Sequence[object]) -> Network:
    """The netlist of a FlowC request around already parsed processes."""
    network = Network(name=str(flowc["name"]))
    for process in processes:
        network.add_process(process)
    for channel in flowc["channels"]:
        source, source_port = channel["source"].split(".", 1)
        target, target_port = channel["target"].split(".", 1)
        network.connect(
            source, source_port, target, target_port,
            name=channel.get("name"), bound=channel.get("bound"),
        )
    for declared in flowc["inputs"]:
        network.declare_input(*declared["port"].split(".", 1), controllable=False)
    for declared in flowc["outputs"]:
        network.declare_output(*declared["port"].split(".", 1), rate=declared.get("rate", 1))
    return network


def _output_ports(flowc: Dict[str, object]) -> List[str]:
    return [declared["port"].split(".", 1)[1] for declared in flowc["outputs"]]


def run_pipeline(system: SystemInput, tracer: Tracer) -> Outcome:
    """FlowC text to a simulated single task (or to a no-schedule verdict)."""
    span, unit = tracer.span, system.name
    options = system.options()
    started = time.perf_counter()
    with span("system", unit):
        with span("flowc.parse_program", unit):
            processes = parse_program(system.flowc["program"])
        network = assemble(system.flowc, processes)
        with span("flowc.link", unit):
            linked = link(network)
        net = linked.net
        with span("petrinet.StructuralAnalysis.of", unit):
            analysis = StructuralAnalysis.of(net)
        with span("petrinet.t_invariant_basis", unit):
            basis = t_invariant_basis(net)
        results = {}
        for source in net.uncontrollable_sources():
            with span("scheduling.find_schedule", unit):
                results[source] = find_schedule(net, source, options=options, analysis=analysis)
        counters = {
            "net_transitions": len(net.transitions),
            "tinv_invariants": len(basis),
            "nodes_expanded": sum(r.counters.nodes_expanded for r in results.values()),
            "fires": sum(r.counters.fires for r in results.values()),
            "tree_nodes": sum(r.tree_nodes for r in results.values()),
        }
        if not all(result.success for result in results.values()):
            return Outcome(time.perf_counter() - started, False, linked, counters=counters)
        schedules = {source: result.schedule for source, result in results.items()}
        counters["schedule_nodes"] = sum(len(s) for s in schedules.values())
        counters["segments"] = counters["code_bytes"] = 0
        for schedule in schedules.values():
            with span("codegen.synthesize_task", unit):
                task = synthesize_task(linked, schedule, analysis=analysis)
            with span("codegen.synthesized_code_size", unit):
                counters["code_bytes"] += synthesized_code_size(task, linked)
            counters["segments"] += len(task.segments.segments)
        with span("runtime.SingleTaskSimulation", unit):
            single = SingleTaskSimulation(linked, schedules=schedules)
            recorder = TraceRecorder()
            for port in _output_ports(system.flowc):
                single.replace_sink(port, TracingSink(port, recorder))
            result = single.run(system.stimulus)
    seconds = time.perf_counter() - started
    counters["task_cycles"] = int(result.cycles("pfc"))
    return Outcome(
        seconds,
        True,
        linked,
        fingerprints={s: schedule_fingerprint(v) for s, v in schedules.items()},
        counters=counters,
        single=result,
        single_trace=recorder,
    )


def check(system: SystemInput, outcome: Outcome, tracer: Tracer) -> List[str]:
    """Problems with one outcome; the multi-task simulation is the reference."""
    if not system.schedulable:
        return [] if not outcome.schedulable else [f"{system.name}: expected no schedule"]
    if not outcome.schedulable:
        return [f"{system.name}: no schedule found"]
    with tracer.span("runtime.MultiTaskSimulation.run", system.name):
        multi = MultiTaskSimulation(
            outcome.linked, channel_capacity=system.capacity, stimulus=system.stimulus
        )
        recorder = TraceRecorder()
        for port in _output_ports(system.flowc):
            multi.replace_sink(port, TracingSink(port, recorder))
        reference = multi.run()
    outcome.counters["context_switches"] = reference.context_switches
    problems = []
    diff = trace_diff(recorder, outcome.single_trace)
    if diff is not None:
        problems.append(f"{system.name}: traces diverge: {diff}")
    if reference.outputs.by_port != outcome.single.outputs.by_port:
        problems.append(f"{system.name}: outputs diverge between implementations")
    events = sum(len(values) for values in system.stimulus.values())
    for label, result in (("multi", reference), ("single", outcome.single)):
        if result.events_served != events:
            problems.append(f"{system.name}: {label}-task served {result.events_served}/{events}")
    return problems
