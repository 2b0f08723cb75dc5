"""Round-robin RTOS model used by the multi-task baseline (Section 8.2).

The paper compares the synthesized single task against an implementation in
which each FlowC process is a separate task executed by a simple round-robin
scheduler.  This module provides the scheduling skeleton and accounting of
context switches and scheduler decisions; the actual execution of a process is
delegated to a runnable object supplied by the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Protocol, Sequence


class RunnableTask(Protocol):
    """What the scheduler needs from a task."""

    name: str

    def can_run(self) -> bool:  # pragma: no cover - protocol
        """True when the task could make progress if scheduled."""
        ...

    def run(self, quantum: int) -> int:  # pragma: no cover - protocol
        """Run until blocked or ``quantum`` steps; return the number of steps."""
        ...


@dataclass
class RtosCosts:
    """Accounting of the RTOS activity during one simulation."""

    context_switches: int = 0
    scheduler_decisions: int = 0
    idle_polls: int = 0
    activations: Dict[str, int] = field(default_factory=dict)

    def record_activation(self, task: str) -> None:
        self.activations[task] = self.activations.get(task, 0) + 1


class RoundRobinScheduler:
    """Cooperative round-robin scheduling of a fixed set of tasks.

    A task runs until it blocks (cannot make progress); switching to a
    different task than the previously running one counts as a context
    switch.  The loop terminates when no task can make progress.
    """

    def __init__(self, tasks: Sequence[RunnableTask], *, quantum: int = 1_000_000):
        if not tasks:
            raise ValueError("the scheduler needs at least one task")
        self.tasks = list(tasks)
        self.quantum = quantum
        self.costs = RtosCosts()
        self._last_running: Optional[str] = None

    def run_until_quiescent(self, *, max_rounds: int = 1_000_000) -> RtosCosts:
        """Run the system until every task is blocked."""
        rounds = 0
        while rounds < max_rounds:
            rounds += 1
            progressed = False
            for task in self.tasks:
                self.costs.scheduler_decisions += 1
                if not task.can_run():
                    self.costs.idle_polls += 1
                    continue
                if self._last_running is not None and self._last_running != task.name:
                    self.costs.context_switches += 1
                elif self._last_running is None:
                    self.costs.context_switches += 1  # initial dispatch
                self._last_running = task.name
                self.costs.record_activation(task.name)
                steps = task.run(self.quantum)
                if steps > 0:
                    progressed = True
            if not progressed:
                break
        return self.costs
