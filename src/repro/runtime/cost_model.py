"""Cycle and code-size cost model (the substitute for the paper's R3000 runs).

The paper reports clock cycles measured on a MIPS R3000 for three compiler
configurations (``pfc`` = no optimisation, ``pfc-O``, ``pfc-O2``) and code
sizes of the generated objects.  We replace the physical measurement with a
deterministic model applied to the operation counts collected during
simulation:

* every abstract operation (arithmetic, comparison, assignment, memory
  access, branch, call) costs a fixed number of cycles, scaled by the
  compiler profile (optimisation mostly shrinks computation code);
* communication costs depend on the implementation: inter-task communication
  under the RTOS pays a per-call overhead plus a per-item copy cost, while
  intra-task communication in the synthesized task is a direct circular
  buffer / variable access;
* each context switch of the round-robin scheduler and each scheduler
  decision costs a fixed number of cycles, *not* scaled by the profile (the
  RTOS is pre-compiled);
* the single synthesized task pays a small ISR dispatch overhead per
  environment event.

The absolute constants are loosely calibrated so that the relative results of
Section 8.2 (single task 4-5x faster, ratios growing under -O/-O2, code size
several times smaller) emerge from the model rather than being hard-coded;
EXPERIMENTS.md records the calibration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from dataclasses import fields as dataclass_fields
from typing import Dict, Mapping, Optional

from repro.flowc.interpreter import OperationCounter
from repro.runtime.channels import CommunicationStats


@dataclass(frozen=True)
class CompilerProfile:
    """One column of the paper's tables: a compiler optimisation level."""

    name: str
    computation_scale: float
    code_scale: float

    def __str__(self) -> str:
        return self.name


PROFILES: Dict[str, CompilerProfile] = {
    "pfc": CompilerProfile("pfc", computation_scale=1.0, code_scale=1.0),
    "pfc-O": CompilerProfile("pfc-O", computation_scale=0.44, code_scale=0.55),
    "pfc-O2": CompilerProfile("pfc-O2", computation_scale=0.42, code_scale=0.53),
}


@dataclass(frozen=True)
class CycleCosts:
    """Cycle costs of the abstract operations (before profile scaling)."""

    arithmetic: int = 2
    comparison: int = 2
    assignment: int = 2
    memory: int = 3
    branch: int = 4
    call: int = 12
    select: int = 8

    def computation_cycles(self, ops: OperationCounter) -> float:
        return (
            ops.arithmetic * self.arithmetic
            + ops.comparisons * self.comparison
            + ops.assignments * self.assignment
            + ops.memory * self.memory
            + ops.branches * self.branch
            + ops.calls * self.call
            + ops.selects * self.select
        )


@dataclass(frozen=True)
class CommunicationCosts:
    """Cycle costs of communication, by implementation style."""

    # inter-task communication through the RTOS / VCC primitives
    intertask_call_overhead: int = 110
    intertask_per_item: int = 6
    # intra-task communication compiled to circular buffers / variables
    intratask_call_overhead: int = 6
    intratask_per_item: int = 2
    # environment (primary) port access: latched arrays, Section 8.1
    environment_call_overhead: int = 14
    environment_per_item: int = 2
    select_overhead: int = 20

    def cycles(self, stats: CommunicationStats) -> float:
        intertask_calls = stats.intertask_reads + stats.intertask_writes
        intratask_calls = stats.intratask_reads + stats.intratask_writes
        environment_calls = stats.environment_reads + stats.environment_writes
        return (
            intertask_calls * self.intertask_call_overhead
            + stats.intertask_items * self.intertask_per_item
            + intratask_calls * self.intratask_call_overhead
            + stats.intratask_items * self.intratask_per_item
            + environment_calls * self.environment_call_overhead
            + stats.environment_items * self.environment_per_item
            + stats.selects * self.select_overhead
        )


@dataclass(frozen=True)
class SchedulingCosts:
    """Cycle costs of the execution framework itself."""

    context_switch: int = 260
    scheduler_decision: int = 30
    isr_dispatch: int = 45
    task_state_update: int = 4  # per state-variable update in the single task


@dataclass
class CostModel:
    """Combines the cycle cost tables with a compiler profile."""

    cycle_costs: CycleCosts = field(default_factory=CycleCosts)
    communication_costs: CommunicationCosts = field(default_factory=CommunicationCosts)
    scheduling_costs: SchedulingCosts = field(default_factory=SchedulingCosts)

    def execution_cycles(
        self,
        ops: OperationCounter,
        comm: CommunicationStats,
        *,
        profile: CompilerProfile,
        context_switches: int = 0,
        scheduler_decisions: int = 0,
        isr_dispatches: int = 0,
        state_updates: int = 0,
    ) -> float:
        """Total cycles of one execution under a compiler profile.

        Computation scales with the profile; communication primitives, RTOS
        overhead and ISR dispatch do not (they are part of the pre-compiled
        runtime, as in the paper's measurements).
        """
        computation = self.cycle_costs.computation_cycles(ops) * profile.computation_scale
        communication = self.communication_costs.cycles(comm)
        framework = (
            context_switches * self.scheduling_costs.context_switch
            + scheduler_decisions * self.scheduling_costs.scheduler_decision
            + isr_dispatches * self.scheduling_costs.isr_dispatch
            + state_updates * self.scheduling_costs.task_state_update
        )
        return computation + communication + framework


# ---------------------------------------------------------------------------
# Code size model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CodeSizeCosts:
    """Byte costs of code constructs (R3000-flavoured rough numbers)."""

    per_statement: int = 8
    per_operator: int = 4
    per_call: int = 12
    per_branch: int = 12
    per_loop: int = 16
    per_label: int = 4
    per_goto: int = 8
    per_switch_case: int = 12
    per_state_update: int = 8
    per_declaration: int = 4
    task_prologue: int = 64
    process_prologue: int = 96
    # communication primitives
    inlined_comm_site: int = 560
    called_comm_site: int = 28
    comm_function_body: int = 560  # shared body when not inlined
    intratask_comm_site: int = 20
    environment_comm_site: int = 36


@dataclass
class CodeSizeModel:
    """Estimates object code size in bytes from AST-level counts."""

    costs: CodeSizeCosts = field(default_factory=CodeSizeCosts)

    def scaled(self, size: float, profile: CompilerProfile) -> int:
        return int(round(size * profile.code_scale))

    def estimate(
        self,
        counts: Mapping[str, int],
        *,
        profile: Optional[CompilerProfile] = None,
    ) -> int:
        """Total bytes of the constructs in ``counts``.

        The code-size counterpart of :meth:`CostModel.execution_cycles`:
        ``counts`` maps :class:`CodeSizeCosts` field names (``per_statement``,
        ``per_goto``, ``task_prologue``, ...) to how many of that construct
        the generated code contains.  Unknown keys raise :class:`KeyError`
        rather than silently dropping a construct.  With ``profile`` the
        total is scaled like :meth:`scaled`; without it the raw ``pfc``-level
        byte count is returned.
        """
        valid = {f.name for f in dataclass_fields(self.costs)}
        total = 0.0
        for name, count in counts.items():
            if name not in valid:
                raise KeyError(
                    f"unknown code-size construct {name!r}; known: {sorted(valid)}"
                )
            total += getattr(self.costs, name) * count
        if profile is None:
            return int(round(total))
        return self.scaled(total, profile)
