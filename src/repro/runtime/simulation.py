"""The two execution substrates compared in the paper's experiments.

* :class:`MultiTaskSimulation` -- the baseline: one task per FlowC process,
  FIFO channels of a given size, a round-robin scheduler with context-switch
  costs (Section 8.2's "4 process system").
* :class:`SingleTaskSimulation` -- the synthesized implementation: one task
  per uncontrollable input executing the quasi-static schedule, intra-task
  channels turned into local buffers.

Both simulators execute the same FlowC code through the same interpreter, so
they produce identical output data; only the scheduling / communication
structure (and therefore the cost accounting) differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.codegen.task import ExecutableTask
from repro.flowc.compiler import SelectCondition
from repro.flowc.interpreter import Environment, Interpreter, OperationCounter, WouldBlock
from repro.flowc.linker import LinkedSystem
from repro.petrinet.net import PetriNet
from repro.runtime.channels import (
    ChannelBuffer,
    CommunicationStats,
    EnvironmentSink,
    EnvironmentSource,
    PortBinding,
)
from repro.runtime.cost_model import CompilerProfile, CostModel, PROFILES
from repro.runtime.rtos import RoundRobinScheduler, RtosCosts
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

    def cycles(self, profile: CompilerProfile | str, cost_model: Optional[CostModel] = None) -> float:
        """Clock cycles of this run under a compiler profile."""
        if isinstance(profile, str):
            profile = PROFILES[profile]
        model = cost_model or CostModel()
        return model.execution_cycles(
            self.operations,
            self.communication,
            profile=profile,
            context_switches=self.context_switches,
            scheduler_decisions=self.scheduler_decisions,
            isr_dispatches=self.isr_dispatches,
            state_updates=self.state_updates,
        )


# ---------------------------------------------------------------------------
# Baseline: one task per process under a round-robin scheduler
# ---------------------------------------------------------------------------


class _ProcessTask:
    """Executes one FlowC process directly over its compiled Petri net."""

    def __init__(
        self,
        name: str,
        system: LinkedSystem,
        binding: PortBinding,
        counter: OperationCounter,
    ):
        self.name = name
        self.system = system
        self.net: PetriNet = system.net
        self.binding = binding
        self.counter = counter
        self.environment = Environment(name)
        self.interpreter = Interpreter(self.environment, binding, counter=counter)
        self.current_place = system.initial_places[name]
        self.transitions_executed = 0
        # execute the hoisted declarations once (initialisation)
        for declaration in system.declarations.get(name, []):
            self.interpreter.execute(declaration)
        # port place name -> FlowC port name for this process
        self._port_of_place: Dict[str, str] = {}
        for (process, port), place in system.port_place_of.items():
            if process == name:
                self._port_of_place[place] = port
        # control place -> successor transitions of this process; the net is
        # structurally frozen during simulation, so compute each list once
        # instead of querying the place adjacency on every executed step
        self._successors_of_place: Dict[str, List[str]] = {}

    def _process_successors(self, place: str) -> List[str]:
        cached = self._successors_of_place.get(place)
        if cached is None:
            cached = [
                t
                for t in sorted(self.net.postset_of_place(place))
                if self.net.transitions[t].process == self.name
            ]
            self._successors_of_place[place] = cached
        return cached

    # -- transition selection ------------------------------------------------
    def _candidate_transition(self) -> Optional[str]:
        """The next transition of this process, or None if blocked.

        Resolves data-dependent choices by evaluating the condition attached
        to the current control place; SELECT choices consult channel
        availability through the binding.
        """
        place_obj = self.net.places[self.current_place]
        successors = self._process_successors(self.current_place)
        if not successors:
            return None
        if len(successors) == 1:
            return successors[0]
        condition = place_obj.condition
        guards = {t: self.net.transitions[t].guard for t in successors}
        if condition is None:
            return successors[0]
        if isinstance(condition, SelectCondition):
            try:
                index = self.interpreter.evaluate(condition.select)
            except WouldBlock:
                return None
            for transition, guard in guards.items():
                if guard == index:
                    return transition
            return None
        value = self.interpreter.evaluate(condition)
        if set(guards.values()) <= {True, False, None}:
            wanted = bool(value)
            for transition, guard in guards.items():
                if guard == wanted:
                    return transition
            return None
        for transition, guard in guards.items():
            if guard == value:
                return transition
        for transition, guard in guards.items():
            if guard == "default":
                return transition
        return None

    def _transition_ready(self, transition: str) -> bool:
        """Blocking semantics: all port reads/writes of the transition must be
        able to proceed."""
        for place, weight in self.net.pre[transition].items():
            if not self.net.places[place].is_port:
                continue
            port = self._port_of_place.get(place)
            if port is None:
                return False
            if not self.binding.can_read(port, weight):
                return False
        for place, weight in self.net.post[transition].items():
            if not self.net.places[place].is_port:
                continue
            port = self._port_of_place.get(place)
            if port is None:
                continue
            if not self.binding.can_write(port, weight):
                return False
        return True

    def _next_control_place(self, transition: str) -> str:
        for place in self.net.post[transition]:
            obj = self.net.places[place]
            if not obj.is_port and obj.process == self.name:
                return place
        return self.current_place

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
            code = self.net.transitions[transition].code
            if code:
                self.interpreter.run(list(code))
            self.current_place = self._next_control_place(transition)
            self.transitions_executed += 1
            steps += 1
        return steps


class MultiTaskSimulation:
    """Baseline implementation: each process is a task over FIFO channels."""

    def __init__(
        self,
        system: LinkedSystem,
        *,
        channel_capacity: int | Mapping[str, int] | None = None,
        stimulus: Optional[Mapping[str, Sequence[Any]]] = None,
    ):
        self.system = system
        self.counter = OperationCounter()
        self.stats = CommunicationStats()
        self.channels: Dict[str, ChannelBuffer] = {}
        self.sources: Dict[str, EnvironmentSource] = {}
        self.sinks: Dict[str, EnvironmentSink] = {}
        self._build_channels(channel_capacity)
        self._bindings = self._build_bindings()
        self.tasks = [
            _ProcessTask(name, system, self._bindings[name], self.counter)
            for name in system.network.processes
        ]
        if stimulus:
            for port, values in stimulus.items():
                self.offer_stimulus(port, values)

    # -- construction ---------------------------------------------------------
    def _build_channels(self, capacity_spec: int | Mapping[str, int] | None) -> None:
        for channel in self.system.network.channels:
            if isinstance(capacity_spec, Mapping):
                capacity = capacity_spec.get(channel.name, channel.bound)
            elif isinstance(capacity_spec, int):
                capacity = capacity_spec
            else:
                capacity = channel.bound
            self.channels[channel.name] = ChannelBuffer(channel.name, capacity)
        for ref in self.system.network.environment_inputs:
            self.sources[ref.port] = EnvironmentSource(ref.port)
        for ref in self.system.network.environment_outputs:
            self.sinks[ref.port] = EnvironmentSink(ref.port)

    def _build_bindings(self) -> Dict[str, PortBinding]:
        bindings: Dict[str, PortBinding] = {}
        for name in self.system.network.processes:
            bindings[name] = PortBinding(stats=self.stats)
        for channel in self.system.network.channels:
            buffer = self.channels[channel.name]
            bindings[channel.source.process].bind_writer(channel.source.port, buffer)
            bindings[channel.target.process].bind_reader(channel.target.port, buffer)
        for ref in self.system.network.environment_inputs:
            bindings[ref.process].bind_source(ref.port, self.sources[ref.port])
        for ref in self.system.network.environment_outputs:
            bindings[ref.process].bind_sink(ref.port, self.sinks[ref.port])
        return bindings

    # -- stimulus / execution ----------------------------------------------------
    def offer_stimulus(self, port: str, values: Sequence[Any]) -> None:
        if port not in self.sources:
            raise KeyError(f"unknown environment input port {port!r}")
        self.sources[port].offer_many(values)

    def replace_sink(self, port: str, sink: EnvironmentSink) -> None:
        """Swap the sink of one environment output (e.g. for a TracingSink)."""
        if port not in self.sinks:
            raise KeyError(f"unknown environment output port {port!r}")
        self.sinks[port] = sink
        for binding in self._bindings.values():
            if port in binding.sinks:
                binding.bind_sink(port, sink)

    def run(self, *, max_rounds: int = 1_000_000) -> SimulationResult:
        scheduler = RoundRobinScheduler(self.tasks)
        costs: RtosCosts = scheduler.run_until_quiescent(max_rounds=max_rounds)
        outputs = SimulationOutputs(
            by_port={name: list(sink.values) for name, sink in self.sinks.items()}
        )
        return SimulationResult(
            implementation="multi-task",
            operations=self.counter,
            communication=self.stats,
            outputs=outputs,
            context_switches=costs.context_switches,
            scheduler_decisions=costs.scheduler_decisions,
            transitions_executed=sum(task.transitions_executed for task in self.tasks),
            events_served=sum(source.total_consumed for source in self.sources.values()),
            channel_max_occupancy={
                name: channel.max_occupancy for name, channel in self.channels.items()
            },
        )


# ---------------------------------------------------------------------------
# Synthesized single task
# ---------------------------------------------------------------------------


class SingleTaskSimulation:
    """The synthesized implementation: one task per uncontrollable input.

    ``schedules`` maps each source transition to serve to its schedule
    (``find_schedule(...).schedule``).
    """

    def __init__(
        self,
        system: LinkedSystem,
        *,
        schedules: Mapping[str, Schedule],
    ):
        self.system = system
        self.counter = OperationCounter()
        self.stats = CommunicationStats()
        self.binding = PortBinding(stats=self.stats)
        self.sources: Dict[str, EnvironmentSource] = {}
        self.sinks: Dict[str, EnvironmentSink] = {}
        self.channels: Dict[str, ChannelBuffer] = {}
        self._build_binding()
        self.schedules: Dict[str, Schedule] = dict(schedules)
        environments: Dict[str, Environment] = {}
        self.tasks: Dict[str, ExecutableTask] = {}
        for source, schedule in self.schedules.items():
            self.tasks[source] = ExecutableTask(
                system,
                schedule,
                self.binding,
                environments=environments,
                counter=self.counter,
            )
        # map environment input port name -> its source transition
        self._task_of_port: Dict[str, str] = {}
        for ref, transition in system.environment_transitions.items():
            if transition in self.tasks:
                self._task_of_port[ref.port] = transition

    def _build_binding(self) -> None:
        # intra-task channels become local circular buffers (Section 6.3)
        for channel in self.system.network.channels:
            buffer = ChannelBuffer(channel.name, None)
            self.channels[channel.name] = buffer
            self.binding.bind_writer(channel.source.port, buffer, intratask=True)
            self.binding.bind_reader(channel.target.port, buffer, intratask=True)
        for ref in self.system.network.environment_inputs:
            source = EnvironmentSource(ref.port)
            self.sources[ref.port] = source
            self.binding.bind_source(ref.port, source)
        for ref in self.system.network.environment_outputs:
            sink = EnvironmentSink(ref.port)
            self.sinks[ref.port] = sink
            self.binding.bind_sink(ref.port, sink)

    def replace_sink(self, port: str, sink: EnvironmentSink) -> None:
        """Swap the sink of one environment output (e.g. for a TracingSink)."""
        if port not in self.sinks:
            raise KeyError(f"unknown environment output port {port!r}")
        self.sinks[port] = sink
        self.binding.bind_sink(port, sink)

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
        outputs = SimulationOutputs(
            by_port={name: list(sink.values) for name, sink in self.sinks.items()}
        )
        events = sum(task.stats.events_served for task in self.tasks.values())
        return SimulationResult(
            implementation="single-task",
            operations=self.counter,
            communication=self.stats,
            outputs=outputs,
            isr_dispatches=events,
            state_updates=sum(task.stats.state_updates for task in self.tasks.values()),
            transitions_executed=sum(
                task.stats.transitions_executed for task in self.tasks.values()
            ),
            events_served=events,
            channel_max_occupancy={
                name: channel.max_occupancy for name, channel in self.channels.items()
            },
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
