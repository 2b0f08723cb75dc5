"""Schedule independence and static executability (Section 4.3).

Two single-source schedules are *mutually independent* iff for every place
involved in one schedule, the token count at that place is the same at every
await node of the other schedule (Definition 4.3).  An independent set of SS
schedules is executable (Proposition 4.2): any interleaving of environment
events can be served by traversing the schedules, and the schedules' node
markings give tight bounds on channel occupancy.

Proposition 4.3 states that for nets generated from FlowC every set of SS
schedules is independent; :func:`is_independent_set` lets tests confirm this
and guards against misuse of hand-built nets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.scheduling.schedule import Schedule


def involved_transitions(schedule: Schedule) -> Set[str]:
    """Transitions associated with at least one edge of ``schedule``."""
    return schedule.involved_transitions()


def involved_places(schedule: Schedule, *, include_postsets: bool = True) -> Set[str]:
    """Places whose token count the schedule can observe or modify.

    The paper defines an involved place as a predecessor of an involved
    transition; for the independence check we conservatively include the
    postsets as well (a place whose count a schedule modifies must also not be
    relied upon by another schedule).
    """
    return schedule.involved_places(include_postsets=include_postsets)


@dataclass
class IndependenceViolation:
    """Witness that two schedules interfere."""

    place: str
    schedule_a: str
    schedule_b: str
    counts_at_await_nodes: Tuple[int, ...]

    def __str__(self) -> str:
        return (
            f"place {self.place!r} involved in schedule for {self.schedule_a!r} has varying "
            f"counts {self.counts_at_await_nodes} at await nodes of the schedule for "
            f"{self.schedule_b!r}"
        )


def _await_counts(schedule: Schedule, place: str) -> Tuple[int, ...]:
    return tuple(node.marking[place] for node in schedule.await_nodes())


def find_independence_violation(
    first: Schedule, second: Schedule
) -> Optional[IndependenceViolation]:
    """Return a violation of Definition 4.3 between two SS schedules, if any."""
    for place in involved_places(first):
        counts = _await_counts(second, place)
        if counts and len(set(counts)) > 1:
            return IndependenceViolation(
                place=place,
                schedule_a=first.source_transition,
                schedule_b=second.source_transition,
                counts_at_await_nodes=counts,
            )
    for place in involved_places(second):
        counts = _await_counts(first, place)
        if counts and len(set(counts)) > 1:
            return IndependenceViolation(
                place=place,
                schedule_a=second.source_transition,
                schedule_b=first.source_transition,
                counts_at_await_nodes=counts,
            )
    return None


def are_mutually_independent(first: Schedule, second: Schedule) -> bool:
    """Definition 4.3 for a pair of schedules."""
    return find_independence_violation(first, second) is None


def is_independent_set(schedules: Sequence[Schedule]) -> bool:
    """True when every pair of schedules in the set is mutually independent."""
    for i, first in enumerate(schedules):
        for second in schedules[i + 1 :]:
            if not are_mutually_independent(first, second):
                return False
    return True


def independence_report(schedules: Sequence[Schedule]) -> List[IndependenceViolation]:
    """All pairwise violations (empty list means the set is independent)."""
    violations: List[IndependenceViolation] = []
    for i, first in enumerate(schedules):
        for second in schedules[i + 1 :]:
            violation = find_independence_violation(first, second)
            if violation is not None:
                violations.append(violation)
    return violations


def combined_place_bounds(schedules: Sequence[Schedule]) -> Dict[str, int]:
    """Tight per-place bounds over an independent set of schedules.

    For each place, the bound is the maximum token count over the nodes of the
    schedules in which the place is involved (Proposition 4.2's observation);
    places involved in no schedule keep their initial count.
    """
    if not schedules:
        return {}
    net = schedules[0].net
    bounds: Dict[str, int] = {
        place: net.initial_tokens.get(place, 0) for place in net.places
    }
    for schedule in schedules:
        node_bounds = schedule.place_bounds()
        for place in involved_places(schedule):
            bounds[place] = max(bounds[place], node_bounds[place])
    return bounds


def channel_size_report(schedules: Sequence[Schedule]) -> Dict[str, int]:
    """Bounds restricted to channel/port places (the buffer sizes to allocate)."""
    if not schedules:
        return {}
    net = schedules[0].net
    bounds = combined_place_bounds(schedules)
    return {
        place: bound for place, bound in bounds.items() if net.places[place].is_port
    }
