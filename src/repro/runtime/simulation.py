"""The two execution substrates compared in the paper's experiments.

* :class:`MultiTaskSimulation` -- the baseline: one task per FlowC process,
  FIFO channels of a given size, a round-robin scheduler with context-switch
  costs (Section 8.2's "4 process system").
* :class:`SingleTaskSimulation` -- the synthesized implementation: one task
  per uncontrollable input executing the quasi-static schedule, intra-task
  channels turned into local buffers.

Both are built from a linked system by one wiring (:class:`_Simulation`):
every process gets its own :class:`PortBinding`, and one
:class:`~repro.codegen.task.Processes` holds every process's variables and
interpreter, runs its hoisted code once, resolves choices and executes code
fragments for both.  So they produce identical output data; only the
scheduling / communication structure (and therefore the cost accounting)
differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.codegen.task import ExecutableTask, Processes
from repro.flowc.interpreter import OperationCounter, WouldBlock
from repro.flowc.linker import LinkedSystem
from repro.flowc.netlist import Channel, PortRef
from repro.petrinet.net import PetriNet
from repro.runtime.channels import (
    ChannelBuffer,
    CommunicationStats,
    EnvironmentSink,
    EnvironmentSource,
    PortBinding,
)
from repro.runtime.cost_model import CompilerProfile, CostModel, PROFILES
from repro.runtime.rtos import RoundRobinScheduler
from repro.scheduling.schedule import Schedule


@dataclass
class SimulationOutputs:
    """Values written to the primary output ports during a run."""

    by_port: Dict[str, List[Any]] = field(default_factory=dict)

    def port(self, name: str) -> List[Any]:
        return self.by_port.get(name, [])


@dataclass
class SimulationResult:
    """Outcome of one simulation run, ready for cost evaluation."""

    implementation: str
    operations: OperationCounter
    communication: CommunicationStats
    outputs: SimulationOutputs
    context_switches: int = 0
    scheduler_decisions: int = 0
    isr_dispatches: int = 0
    state_updates: int = 0
    transitions_executed: int = 0
    events_served: int = 0
    channel_max_occupancy: Dict[str, int] = field(default_factory=dict)

    def cycles(self, profile: CompilerProfile | str) -> float:
        """Clock cycles of this run under a compiler profile."""
        if isinstance(profile, str):
            profile = PROFILES[profile]
        return CostModel().execution_cycles(
            self.operations,
            self.communication,
            profile=profile,
            context_switches=self.context_switches,
            scheduler_decisions=self.scheduler_decisions,
            isr_dispatches=self.isr_dispatches,
            state_updates=self.state_updates,
        )


# ---------------------------------------------------------------------------
# The wiring both simulators share
# ---------------------------------------------------------------------------


def _owners(refs: Iterable[PortRef]) -> Dict[str, str]:
    """The process owning each environment port, by port name.

    Stimuli and outputs name environment ports bare, so two processes may
    not declare environment ports of one name.
    """
    owners: Dict[str, str] = {}
    for ref in refs:
        if ref.port in owners:
            raise ValueError(
                f"environment ports {owners[ref.port]}.{ref.port} and {ref} share the "
                f"name {ref.port!r}"
            )
        owners[ref.port] = ref.process
    return owners


class _Simulation:
    """A linked system wired for execution.

    Each process gets its own :class:`PortBinding`: a channel becomes one
    :class:`ChannelBuffer` of ``capacity(channel)`` items (``None``:
    unbounded) between its writer's and its reader's binding, and each
    environment port an :class:`EnvironmentSource` or
    :class:`EnvironmentSink` keyed by the port's name.  One
    :class:`Processes` runs the FlowC code over these bindings.
    """

    def __init__(
        self,
        system: LinkedSystem,
        capacity: Callable[[Channel], Optional[int]],
        *,
        intratask: bool,
    ):
        self.system = system
        self.stats = CommunicationStats()
        network = system.network
        ports = {name: PortBinding(stats=self.stats) for name in network.processes}
        self.channels: Dict[str, ChannelBuffer] = {}
        for channel in network.channels:
            buffer = ChannelBuffer(channel.name, capacity(channel))
            self.channels[channel.name] = buffer
            writer, reader = channel.source, channel.target
            ports[writer.process].bind_writer(writer.port, buffer, intratask=intratask)
            ports[reader.process].bind_reader(reader.port, buffer, intratask=intratask)
        self.sources: Dict[str, EnvironmentSource] = {}
        for port, process in _owners(network.environment_inputs).items():
            self.sources[port] = EnvironmentSource(port)
            ports[process].bind_source(port, self.sources[port])
        self._sink_owner = _owners(network.environment_outputs)
        self.sinks: Dict[str, EnvironmentSink] = {}
        for port, process in self._sink_owner.items():
            self.sinks[port] = EnvironmentSink(port)
            ports[process].bind_sink(port, self.sinks[port])
        self.processes = Processes(system, ports)

    def replace_sink(self, port: str, sink: EnvironmentSink) -> None:
        """Swap the sink of one environment output (e.g. for a TracingSink)."""
        if port not in self.sinks:
            raise KeyError(f"unknown environment output port {port!r}")
        self.sinks[port] = sink
        self.processes.ports[self._sink_owner[port]].bind_sink(port, sink)

    def _result(self, implementation: str, **fields: int) -> SimulationResult:
        """The fields both simulators fill alike, plus their own ``fields``."""
        return SimulationResult(
            implementation=implementation,
            operations=self.processes.counter,
            communication=self.stats,
            outputs=SimulationOutputs(
                by_port={name: list(sink.values) for name, sink in self.sinks.items()}
            ),
            channel_max_occupancy={
                name: channel.max_occupancy for name, channel in self.channels.items()
            },
            **fields,
        )


# ---------------------------------------------------------------------------
# Baseline: one task per process under a round-robin scheduler
# ---------------------------------------------------------------------------


#: A transition's port reads (``None``: it reads a port place of no port of
#: its process, so it never proceeds), its port writes and its next control place
_Arcs = Tuple[Optional[List[Tuple[str, int]]], List[Tuple[str, int]], Optional[str]]


class _ProcessTask:
    """Executes one FlowC process directly over its compiled Petri net."""

    def __init__(self, name: str, system: LinkedSystem, processes: Processes):
        self.name = name
        self.net: PetriNet = system.net
        self.processes = processes
        self.ports = processes.ports[name]
        self.current_place = system.initial_places[name]
        self._decided: Optional[str] = None
        self.transitions_executed = 0
        # port place name -> FlowC port name for this process
        self._port_of_place: Dict[str, str] = {
            place: port for (process, port), place in system.port_place_of.items() if process == name
        }
        # control place -> successor transitions of this process, transition
        # -> its _Arcs; the net is structurally frozen during simulation, so
        # compute each once instead of scanning on every executed step
        self._successors_of_place: Dict[str, Tuple[str, ...]] = {}
        self._arcs_of: Dict[str, _Arcs] = {}

    def _process_successors(self, place: str) -> Tuple[str, ...]:
        cached = self._successors_of_place.get(place)
        if cached is None:
            cached = tuple(
                t
                for t in sorted(self.net.postset_of_place(place))
                if self.net.transitions[t].process == self.name
            )
            self._successors_of_place[place] = cached
        return cached

    # -- transition selection ------------------------------------------------
    def _candidate_transition(self) -> Optional[str]:
        """The next transition of this process, or None if blocked.

        Decided once per visit of the current control place, however often
        the scheduler polls: a choice's condition is evaluated once, except a
        SELECT none of whose ports can proceed, which decides nothing.
        """
        if self._decided is not None:
            return self._decided
        successors = self._process_successors(self.current_place)
        if len(successors) <= 1:
            return successors[0] if successors else None
        choice = self.processes.choice(successors)
        if choice is None:
            return successors[0]
        try:
            self._decided = choice.branch(self.processes.condition(choice))
        except WouldBlock:
            return None
        return self._decided

    def _arcs(self, transition: str) -> _Arcs:
        places, ports = self.net.places, self._port_of_place
        reads: Optional[List[Tuple[str, int]]] = []
        for place, weight in self.net.pre[transition].items():
            if places[place].is_port:
                if place not in ports:
                    reads = None
                    break
                reads.append((ports[place], weight))
        writes, following = [], None
        for place, weight in self.net.post[transition].items():
            if places[place].is_port:
                if place in ports:
                    writes.append((ports[place], weight))
            elif following is None and places[place].process == self.name:
                following = place
        return reads, writes, following

    def _transition_ready(self, transition: str) -> bool:
        """Blocking semantics: all port reads/writes of the transition must be
        able to proceed (reads first, each side in arc order)."""
        arcs = self._arcs_of.get(transition)
        if arcs is None:
            arcs = self._arcs_of[transition] = self._arcs(transition)
        reads, writes, _following = arcs
        if reads is None:
            return False
        for port, weight in reads:
            if not self.ports.can_read(port, weight):
                return False
        for port, weight in writes:
            if not self.ports.can_write(port, weight):
                return False
        return True

    # -- RunnableTask interface -------------------------------------------------
    def can_run(self) -> bool:
        transition = self._candidate_transition()
        if transition is None:
            return False
        return self._transition_ready(transition)

    def run(self, quantum: int) -> int:
        steps = 0
        while steps < quantum:
            transition = self._candidate_transition()
            if transition is None:
                break
            if not self._transition_ready(transition):
                break
            self.processes.execute(transition)
            following = self._arcs_of[transition][2]  # filled by _transition_ready
            if following is not None:
                self.current_place = following
            self._decided = None
            self.transitions_executed += 1
            steps += 1
        return steps


class MultiTaskSimulation(_Simulation):
    """Baseline implementation: each process is a task over FIFO channels.

    ``channel_capacity`` sizes the FIFOs: one size for all, sizes by channel
    name, or ``None`` for each channel's declared bound.
    """

    def __init__(
        self,
        system: LinkedSystem,
        *,
        channel_capacity: int | Mapping[str, int] | None = None,
        stimulus: Optional[Mapping[str, Sequence[Any]]] = None,
    ):
        def capacity(channel: Channel) -> Optional[int]:
            if isinstance(channel_capacity, Mapping):
                return channel_capacity.get(channel.name, channel.bound)
            if isinstance(channel_capacity, int):
                return channel_capacity
            return channel.bound

        super().__init__(system, capacity, intratask=False)
        self.tasks = [
            _ProcessTask(name, system, self.processes) for name in system.network.processes
        ]
        if stimulus:
            for port, values in stimulus.items():
                self.offer_stimulus(port, values)

    def offer_stimulus(self, port: str, values: Sequence[Any]) -> None:
        if port not in self.sources:
            raise KeyError(f"unknown environment input port {port!r}")
        self.sources[port].offer_many(values)

    def run(self) -> SimulationResult:
        costs = RoundRobinScheduler(self.tasks).run_until_quiescent()
        return self._result(
            "multi-task",
            context_switches=costs.context_switches,
            scheduler_decisions=costs.scheduler_decisions,
            transitions_executed=sum(task.transitions_executed for task in self.tasks),
            events_served=sum(source.total_consumed for source in self.sources.values()),
        )


# ---------------------------------------------------------------------------
# Synthesized single task
# ---------------------------------------------------------------------------


class SingleTaskSimulation(_Simulation):
    """The synthesized implementation: one task per uncontrollable input.

    ``schedules`` maps each source transition to serve to its schedule
    (``find_schedule(...).schedule``).  Channels become unbounded local
    buffers inside the task (Section 6.3).
    """

    def __init__(
        self,
        system: LinkedSystem,
        *,
        schedules: Mapping[str, Schedule],
    ):
        super().__init__(system, lambda channel: None, intratask=True)
        self.schedules: Dict[str, Schedule] = dict(schedules)
        self.tasks: Dict[str, ExecutableTask] = {
            source: ExecutableTask(system, schedule, self.processes)
            for source, schedule in self.schedules.items()
        }
        # map environment input port name -> its source transition
        self._task_of_port: Dict[str, str] = {}
        for ref, transition in system.environment_transitions.items():
            if transition in self.tasks:
                self._task_of_port[ref.port] = transition

    # -- execution ---------------------------------------------------------------
    def run_events(self, port: str, values: Sequence[Any]) -> None:
        """Serve a sequence of occurrences of one uncontrollable input."""
        transition = self._task_of_port.get(port)
        if transition is None:
            raise KeyError(f"no synthesized task serves input port {port!r}")
        task = self.tasks[transition]
        for value in values:
            task.react(value)

    def run(self, stimulus: Mapping[str, Sequence[Any]]) -> SimulationResult:
        for port, values in stimulus.items():
            self.run_events(port, values)
        return self.result()

    def result(self) -> SimulationResult:
        tasks = self.tasks.values()
        events = sum(task.stats.events_served for task in tasks)
        return self._result(
            "single-task",
            isr_dispatches=events,
            state_updates=sum(task.stats.state_updates for task in tasks),
            transitions_executed=sum(task.stats.transitions_executed for task in tasks),
            events_served=events,
        )

    def channel_bounds(self) -> Dict[str, int]:
        """Channel sizes determined by the schedules (Proposition 4.2)."""
        bounds: Dict[str, int] = {}
        for schedule in self.schedules.values():
            for place, bound in schedule.channel_bounds().items():
                channel = self.system.channel_of_place(place)
                if channel is not None:
                    bounds[channel] = max(bounds.get(channel, 0), bound)
        return bounds
