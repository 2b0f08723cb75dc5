"""Quasi-static scheduling: the paper's primary contribution.

* :mod:`repro.scheduling.schedule` -- schedule graphs (Section 4.1) and their
  defining properties, await nodes, channel bounds.
* :mod:`repro.scheduling.termination` -- the irrelevance criterion pruning
  the search (Definition 4.5), incrementally and by the exact walk.
* :mod:`repro.scheduling.heuristics` -- the T-invariant promising vector
  that the EP search's ECS ranking reads (Section 5.5).
* :mod:`repro.scheduling.ep` -- the EP / EP_ECS scheduling algorithm
  (Section 5.2) with single-source constraint and post-processing.
* :mod:`repro.scheduling.independence` -- schedule independence (Definition
  4.3) and executability.
* :mod:`repro.scheduling.runs` -- runs of a set of schedules against input
  sequences (Definition 4.1) and dynamic executability checking.
* :mod:`repro.scheduling.serialize` -- canonical schedule (de)serialization
  used by the golden fixtures and by the serve daemon and its record cache.
"""

from repro.scheduling.schedule import (
    Schedule,
    ScheduleNode,
    ScheduleValidationError,
)
from repro.scheduling.ep import (
    SchedulerOptions,
    SchedulerResult,
    SchedulingFailure,
    SearchCounters,
    find_all_schedules,
    find_schedule,
)
from repro.scheduling.serialize import (
    schedule_fingerprint,
    schedule_from_dict,
    schedule_summary,
    schedule_to_dict,
    schedule_to_json,
)
from repro.scheduling.independence import (
    are_mutually_independent,
    is_independent_set,
)
from repro.scheduling.runs import Run, RunError, build_run, check_executability

__all__ = [
    "Run",
    "RunError",
    "Schedule",
    "ScheduleNode",
    "ScheduleValidationError",
    "SchedulerOptions",
    "SchedulerResult",
    "SchedulingFailure",
    "SearchCounters",
    "are_mutually_independent",
    "build_run",
    "check_executability",
    "find_all_schedules",
    "find_schedule",
    "is_independent_set",
    "schedule_fingerprint",
    "schedule_from_dict",
    "schedule_summary",
    "schedule_to_dict",
    "schedule_to_json",
]
