"""Code generation: from schedules to software tasks (Section 6).

* :mod:`repro.codegen.segments` -- threads and code segments: loop cutting
  and the traverse / compare algorithm (Section 6.2).
* :mod:`repro.codegen.synthesis` -- C source synthesis: declarations,
  initialisation and the ISR with execution / update / jump sections
  (Section 6.4).
* :mod:`repro.codegen.task` -- an executable (interpreted) form of the
  synthesized task, used by the simulation substrate in place of the paper's
  VCC / R3000 execution environment.
"""

from repro.codegen.segments import (
    CodeSegment,
    CodeSegmentNode,
    SegmentSet,
    Thread,
    extract_code_segments,
    extract_threads,
)
from repro.codegen.synthesis import SynthesizedTask, synthesize_task
from repro.codegen.task import ExecutableTask, TaskExecutionError

__all__ = [
    "CodeSegment",
    "CodeSegmentNode",
    "ExecutableTask",
    "SegmentSet",
    "SynthesizedTask",
    "TaskExecutionError",
    "Thread",
    "extract_code_segments",
    "extract_threads",
    "synthesize_task",
]
