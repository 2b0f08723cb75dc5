"""Executable form of a synthesized task.

The paper's flow generates C code that is compiled and run on the target
processor.  For the reproduction we also need to *execute* the synthesized
task so the experiments can compare it against the multi-task baseline; this
module provides that executable form: it walks each reaction of the schedule
(:meth:`Schedule.reaction <repro.scheduling.schedule.Schedule.reaction>`),
runs the code fragments attached to the transitions through the FlowC
interpreter, and resolves data-dependent choices at run time -- exactly the
behaviour of the generated ISR of Section 6.4 (static order of transitions,
run-time resolution of data choices, state kept between invocations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence

from repro.flowc.compiler import Choice, choice_of
from repro.flowc.interpreter import Environment, Interpreter, OperationCounter, WouldBlock
from repro.flowc.linker import LinkedSystem
from repro.petrinet.net import PetriNet, Transition
from repro.runtime.channels import CommunicationStats, PortBinding
from repro.scheduling.schedule import ReactionError, Schedule, ScheduleNode


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
        # schedule node index -> the data-dependent choice of its ECS
        self._choices: Dict[int, Choice] = {}
        # the environment input port whose latch receives each event's value
        ports = system.environment_transitions.items()
        self._input_port: Optional[str] = next(
            (ref.port for ref, t in ports if t == schedule.source_transition), None
        )
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
        source = self.binding.sources.get(self._input_port)
        if source is not None:
            source.offer(value)
        steps = self.schedule.reaction(
            self.current_node,
            self.source_transition,
            self._resolve_choice,
            max_steps=self.max_steps_per_event,
        )
        try:
            # the source edge is the event itself: the latch above realises it
            _source, node = next(steps)
            self.stats.events_served += 1
            for transition, node in steps:
                self._execute_transition(transition)
        except ReactionError as error:
            raise TaskExecutionError(f"task cannot serve the event: {error}") from error
        self.current_node = node.index

    def run_events(self, values: Sequence[Any]) -> None:
        for value in values:
            self.react(value)

    # ------------------------------------------------------------------
    # choice resolution
    # ------------------------------------------------------------------
    def _resolve_choice(self, node: ScheduleNode) -> str:
        choice = self._choices.get(node.index)
        if choice is None:
            choice = choice_of(self.net, list(node.edges))
            if choice is None:
                raise TaskExecutionError(
                    f"cannot determine the choice place for node {node.index} "
                    f"(transitions {sorted(node.edges)})"
                )
            self._choices[node.index] = choice
        process = self.net.places[choice.place].process
        if process is None:
            raise TaskExecutionError(f"choice place {choice.place!r} has no owning process")
        value = self._interpreter_for(process).evaluate(choice.expression)
        transition = choice.branch(value)
        if transition is None:
            raise TaskExecutionError(
                f"no branch of the schedule takes value {value!r} at node {node.index}"
            )
        self.stats.data_choices_resolved += 1
        return transition

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
