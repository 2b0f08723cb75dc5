"""Executable form of a synthesized task.

The paper's flow generates C code that is compiled and run on the target
processor.  For the reproduction we also need to *execute* the synthesized
task so the experiments can compare it against the multi-task baseline; this
module provides that executable form: it walks the schedule graph, runs the
code fragments attached to the transitions through the FlowC interpreter, and
resolves data-dependent choices at run time -- exactly the behaviour of the
generated ISR of Section 6.4 (static order of transitions, run-time resolution
of data choices, state kept between invocations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.flowc.compiler import SelectCondition
from repro.flowc.interpreter import Environment, Interpreter, OperationCounter, WouldBlock
from repro.flowc.linker import LinkedSystem
from repro.petrinet.net import PetriNet, Transition
from repro.runtime.channels import CommunicationStats, PortBinding
from repro.scheduling.schedule import Schedule, ScheduleNode


class TaskExecutionError(Exception):
    """Raised when the synthesized task cannot make progress correctly."""


@dataclass
class TaskStatistics:
    """Execution statistics of one synthesized task."""

    events_served: int = 0
    transitions_executed: int = 0
    data_choices_resolved: int = 0
    state_updates: int = 0


class ExecutableTask:
    """Interpreted execution of a schedule as a single software task.

    Parameters
    ----------
    system:
        The linked system the schedule was computed for (supplies the per
        process declarations and port naming).
    schedule:
        The (single-source) schedule generated for one uncontrollable input.
    binding:
        Port binding supplying intra-task buffers, environment sources and
        sinks.  Multiple tasks of the same system may share one binding.
    environments:
        Optional shared per-process variable environments (shared when several
        tasks are generated for the same system).
    """

    def __init__(
        self,
        system: LinkedSystem,
        schedule: Schedule,
        binding: PortBinding,
        *,
        environments: Optional[Dict[str, Environment]] = None,
        counter: Optional[OperationCounter] = None,
        max_steps_per_event: int = 1_000_000,
    ):
        self.system = system
        self.schedule = schedule
        self.binding = binding
        self.net: PetriNet = schedule.net
        self.counter = counter if counter is not None else OperationCounter()
        self.stats = TaskStatistics()
        self.max_steps_per_event = max_steps_per_event
        self.environments: Dict[str, Environment] = environments if environments is not None else {}
        self._interpreters: Dict[str, Interpreter] = {}
        # place name -> (process, port name) of the port place, used to map
        # net-level places back to FlowC ports when resolving SELECT choices
        self._port_names: Dict[str, Tuple[str, str]] = {}
        for (process, port), place in system.port_place_of.items():
            self._port_names.setdefault(place, (process, port))
        self._uncontrollable = set(self.net.uncontrollable_sources())
        self._await_nodes = {node.index for node in schedule.await_nodes()}
        self.current_node: int = schedule.root
        self._initialise_environments()

    # ------------------------------------------------------------------
    # initialisation (Section 6.4.2)
    # ------------------------------------------------------------------
    def _initialise_environments(self) -> None:
        for process_name in self.system.network.processes:
            if process_name not in self.environments:
                self.environments[process_name] = Environment(process_name)
        for process_name, declarations in self.system.declarations.items():
            interpreter = self._interpreter_for(process_name)
            for declaration in declarations:
                interpreter.execute(declaration)

    def _interpreter_for(self, process: str) -> Interpreter:
        if process not in self._interpreters:
            self._interpreters[process] = Interpreter(
                self.environments[process], self.binding, counter=self.counter
            )
        return self._interpreters[process]

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    @property
    def source_transition(self) -> str:
        return self.schedule.source_transition

    def react(self, value: Any = 0) -> None:
        """Serve one occurrence of the task's uncontrollable input.

        The input value is latched into the environment source bound to the
        triggering port (Section 8.1), then the ISR body runs: transitions are
        executed in schedule order, data-dependent choices are resolved from
        the current variable values, and execution stops at the next await
        node.
        """
        source_ref = None
        for ref, transition in self.system.environment_transitions.items():
            if transition == self.source_transition:
                source_ref = ref
                break
        if source_ref is not None and source_ref.port in self.binding.sources:
            self.binding.sources[source_ref.port].offer(value)

        node = self.schedule.node(self.current_node)
        if self.source_transition not in node.edges:
            raise TaskExecutionError(
                f"task is at node {node.index} which cannot serve {self.source_transition!r}"
            )
        self.stats.events_served += 1
        # fire the source edge (the event itself), then continue to the next await node
        node = self.schedule.node(node.edges[self.source_transition])
        steps = 0
        while True:
            steps += 1
            if steps > self.max_steps_per_event:
                raise TaskExecutionError("task exceeded the step budget for one event")
            outgoing = node.edges
            if set(outgoing) & self._uncontrollable:
                break
            if not outgoing:
                raise TaskExecutionError(f"schedule node {node.index} has no outgoing edges")
            if len(outgoing) == 1:
                transition = next(iter(outgoing))
            else:
                transition = self._resolve_choice(node)
                self.stats.data_choices_resolved += 1
            self._execute_transition(transition)
            node = self.schedule.node(outgoing[transition])
        self.current_node = node.index

    def run_events(self, values: Sequence[Any]) -> None:
        for value in values:
            self.react(value)

    # ------------------------------------------------------------------
    # choice resolution
    # ------------------------------------------------------------------
    def _choice_place_of(self, node: ScheduleNode) -> str:
        transitions = list(node.edges)
        shared = None
        for place in self.net.pre[transitions[0]]:
            obj = self.net.places[place]
            if obj.condition is not None and all(
                place in self.net.pre[t] for t in transitions
            ):
                shared = place
                break
        if shared is None:
            raise TaskExecutionError(
                f"cannot determine the choice place for node {node.index} "
                f"(transitions {sorted(transitions)})"
            )
        return shared

    def _resolve_choice(self, node: ScheduleNode) -> str:
        place = self._choice_place_of(node)
        place_obj = self.net.places[place]
        condition = place_obj.condition
        process = place_obj.process
        if process is None:
            raise TaskExecutionError(f"choice place {place!r} has no owning process")
        interpreter = self._interpreter_for(process)
        guards: Dict[str, Optional[object]] = {
            t: self.net.transitions[t].guard for t in node.edges
        }
        if isinstance(condition, SelectCondition):
            index = interpreter.evaluate(condition.select)
            for transition, guard in guards.items():
                if guard == index:
                    return transition
            raise TaskExecutionError(
                f"SELECT resolved to branch {index} which is not part of the schedule "
                f"at node {node.index}"
            )
        value = interpreter.evaluate(condition)
        boolean_guards = set(guards.values()) <= {True, False, None}
        if boolean_guards:
            wanted = bool(value)
            for transition, guard in guards.items():
                if guard == wanted:
                    return transition
            raise TaskExecutionError(
                f"no branch for condition value {wanted!r} at node {node.index}"
            )
        # data switch: match the case value, falling back to 'default'
        for transition, guard in guards.items():
            if guard == value:
                return transition
        for transition, guard in guards.items():
            if guard == "default":
                return transition
        raise TaskExecutionError(
            f"no case matches value {value!r} at node {node.index}"
        )

    # ------------------------------------------------------------------
    # transition execution
    # ------------------------------------------------------------------
    def _execute_transition(self, transition: str) -> None:
        obj: Transition = self.net.transitions[transition]
        self.stats.transitions_executed += 1
        self.stats.state_updates += 1
        if obj.is_source or obj.is_sink:
            # environment interactions are realised by the port latches and
            # sinks; the transition itself carries no code
            return
        if not obj.code:
            return
        process = obj.process
        if process is None:
            return
        interpreter = self._interpreter_for(process)
        try:
            interpreter.run(list(obj.code))
        except WouldBlock as error:
            raise TaskExecutionError(
                f"synthesized task blocked on port {error.port!r}: the schedule "
                "guarantees this cannot happen, so the binding is inconsistent"
            ) from error

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def communication_stats(self) -> CommunicationStats:
        return self.binding.stats

    def describe_state(self) -> str:
        node = self.schedule.node(self.current_node)
        return f"await node {node.index} [{node.marking.pretty()}]"
