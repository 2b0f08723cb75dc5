"""Execution substrate: channels, cost model, RTOS model and simulators.

The paper evaluates the synthesized task on a Cadence VCC flow and an R3000
board; this package replaces that infrastructure with a deterministic
simulation substrate:

* :mod:`repro.runtime.channels` -- FIFO channels, environment port latches.
* :mod:`repro.runtime.cost_model` -- cycle and code-size accounting with the
  ``pfc`` / ``pfc-O`` / ``pfc-O2`` compiler profiles of Section 8.2.
* :mod:`repro.runtime.rtos` -- the round-robin multi-tasking model used by
  the 4-process baseline (context switches, communication primitives).
* :mod:`repro.runtime.simulation` -- the two simulators compared in the
  experiments: one task per process under the RTOS model, and the synthesized
  single task per uncontrollable input.
"""

from repro.runtime.channels import (
    ChannelBuffer,
    EnvironmentSink,
    EnvironmentSource,
)
from repro.runtime.cost_model import (
    CodeSizeModel,
    CompilerProfile,
    CostModel,
    CycleCosts,
    PROFILES,
)
from repro.runtime.rtos import RoundRobinScheduler, RtosCosts
from repro.runtime.simulation import (
    MultiTaskSimulation,
    SimulationOutputs,
    SimulationResult,
    SingleTaskSimulation,
)

__all__ = [
    "ChannelBuffer",
    "CodeSizeModel",
    "CompilerProfile",
    "CostModel",
    "CycleCosts",
    "EnvironmentSink",
    "EnvironmentSource",
    "MultiTaskSimulation",
    "PROFILES",
    "RoundRobinScheduler",
    "RtosCosts",
    "SimulationOutputs",
    "SimulationResult",
    "SingleTaskSimulation",
]
