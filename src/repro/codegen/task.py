"""Executable form of a synthesized task, and the process state it runs on.

The paper's flow generates C code that is compiled and run on the target
processor.  For the reproduction we also need to *execute* the synthesized
task so the experiments can compare it against the multi-task baseline; this
module provides that executable form: it walks each reaction of the schedule
(:meth:`Schedule.reaction <repro.scheduling.schedule.Schedule.reaction>`),
runs the code fragments attached to the transitions through the FlowC
interpreter, and resolves data-dependent choices at run time -- exactly the
behaviour of the generated ISR of Section 6.4 (static order of transitions,
run-time resolution of data choices, state kept between invocations).

:class:`Processes` is the running state of a linked system's processes: one
variable environment and one interpreter per process, over that process's
own port binding, initialised once (Section 6.4.2).  Both simulators of
:mod:`repro.runtime.simulation` build one per run and resolve choices and
execute fragments through it -- the synthesized tasks here, the baseline's
process tasks there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.flowc.compiler import Choice, choice_of
from repro.flowc.interpreter import Environment, Interpreter, OperationCounter, WouldBlock
from repro.flowc.linker import LinkedSystem
from repro.runtime.channels import PortBinding
from repro.scheduling.schedule import ReactionError, Schedule, ScheduleNode


class TaskExecutionError(Exception):
    """Raised when the synthesized task cannot make progress correctly."""


class Processes:
    """The variables and interpreters of every process of a linked system.

    ``ports`` maps each process to its own :class:`PortBinding`.  Every
    interpreter counts into the one :attr:`counter`.  The hoisted
    initialisation of each process runs once, on construction.
    """

    def __init__(self, system: LinkedSystem, ports: Mapping[str, PortBinding]):
        self.net = system.net
        self.ports = ports
        self.counter = OperationCounter()
        self.interpreters: Dict[str, Interpreter] = {
            name: Interpreter(Environment(name), ports[name], counter=self.counter)
            for name in system.network.processes
        }
        self._choices: Dict[Tuple[str, ...], Optional[Choice]] = {}
        self._fragments: Dict[str, Tuple[Any, Optional[Interpreter]]] = {}
        for name, declarations in system.declarations.items():
            self.interpreters[name].execute_block(declarations)

    def choice(self, transitions: Tuple[str, ...]) -> Optional[Choice]:
        """The data-dependent choice among ``transitions``, or ``None``."""
        if transitions not in self._choices:
            self._choices[transitions] = choice_of(self.net, transitions)
        return self._choices[transitions]

    def condition(self, choice: Choice) -> Any:
        """The value of ``choice``'s condition in the process owning its place.

        A ``SELECT`` none of whose ports can proceed raises :class:`WouldBlock`.
        """
        process = self.net.places[choice.place].process
        if process is None:
            raise TaskExecutionError(f"choice place {choice.place!r} has no owning process")
        return self.interpreters[process].evaluate(choice.expression)

    def execute(self, transition: str) -> None:
        """Run the code fragment of ``transition`` in its process (both found once)."""
        if transition not in self._fragments:
            obj = self.net.transitions[transition]
            self._fragments[transition] = (obj.code, self.interpreters.get(obj.process))
        code, interpreter = self._fragments[transition]
        if code:
            interpreter.run(code)


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
        The linked system the schedule was computed for.
    schedule:
        The (single-source) schedule generated for one uncontrollable input.
    processes:
        The process state the task runs on; every task of one system shares
        it.
    """

    def __init__(
        self,
        system: LinkedSystem,
        schedule: Schedule,
        processes: Processes,
        *,
        max_steps_per_event: int = 1_000_000,
    ):
        self.schedule = schedule
        self.processes = processes
        self.stats = TaskStatistics()
        self.max_steps_per_event = max_steps_per_event
        # the environment source that latches each event's value
        (self._latch,) = [
            processes.ports[ref.process].sources[ref.port]
            for ref, transition in system.environment_transitions.items()
            if transition == schedule.source_transition
        ]
        self.current_node: int = schedule.root

    def react(self, value: Any = 0) -> None:
        """Serve one occurrence of the task's uncontrollable input.

        The input value is latched into the environment source bound to the
        triggering port (Section 8.1), then the ISR body runs: transitions are
        executed in schedule order, data-dependent choices are resolved from
        the current variable values, and execution stops at the next await
        node.
        """
        self._latch.offer(value)
        steps = self.schedule.reaction(
            self.current_node,
            self.schedule.source_transition,
            self._resolve_choice,
            max_steps=self.max_steps_per_event,
        )
        try:
            # the source edge is the event itself: the latch above realises it
            _source, node = next(steps)
            self.stats.events_served += 1
            for transition, node in steps:
                self.stats.transitions_executed += 1
                self.stats.state_updates += 1
                self.processes.execute(transition)
        except ReactionError as error:
            raise TaskExecutionError(f"task cannot serve the event: {error}") from error
        except WouldBlock as error:
            raise TaskExecutionError(
                f"synthesized task blocked on port {error.port!r}: the schedule "
                "guarantees this cannot happen, so the binding is inconsistent"
            ) from error
        self.current_node = node.index

    def run_events(self, values: Sequence[Any]) -> None:
        for value in values:
            self.react(value)

    def _resolve_choice(self, node: ScheduleNode) -> str:
        choice = self.processes.choice(tuple(node.edges))
        if choice is None:
            raise TaskExecutionError(
                f"cannot determine the choice place for node {node.index} "
                f"(transitions {sorted(node.edges)})"
            )
        value = self.processes.condition(choice)
        transition = choice.branch(value)
        if transition is None:
            raise TaskExecutionError(
                f"no branch of the schedule takes value {value!r} at node {node.index}"
            )
        self.stats.data_choices_resolved += 1
        return transition

    def describe_state(self) -> str:
        node = self.schedule.node(self.current_node)
        return f"await node {node.index} [{node.marking.pretty()}]"
