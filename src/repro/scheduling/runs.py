"""Runs of a set of schedules (Definition 4.1) and dynamic executability.

Given one SS schedule per uncontrollable source transition and a finite
sequence of environment events, a *run* is the sequence of schedule paths
traversed to serve the events: each event is served by walking its schedule
from the await node reached by the previous traversal of that schedule to the
next await node (:meth:`Schedule.reaction
<repro.scheduling.schedule.Schedule.reaction>`).  A set of schedules is *executable* (Definition 4.2) when the
concatenated transition sequence of every run is fireable in the original net
from the initial marking.

The run builder below resolves data-dependent choices through a pluggable
policy (deterministic, random, or exhaustive in tests) and checks firing
against the net, providing the dynamic counterpart to the static independence
check of :mod:`repro.scheduling.independence`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.petrinet.marking import Marking
from repro.petrinet.net import PetriNet
from repro.scheduling.schedule import ReactionError, Schedule, ScheduleNode


class RunError(Exception):
    """Raised when a run cannot be constructed or is not fireable."""


# A choice resolver picks the transition to follow at a node with several
# outgoing edges.  It receives the schedule, the node and the marking of the
# *original net* at that point of the run.
ChoiceResolver = Callable[[Schedule, ScheduleNode, Marking], str]


def first_choice_resolver(schedule: Schedule, node: ScheduleNode, marking: Marking) -> str:
    """Deterministic resolver: smallest transition name."""
    return min(node.edges)


def random_choice_resolver(seed: int = 0) -> ChoiceResolver:
    """Random but reproducible resolver."""
    generator = random.Random(seed)

    def resolve(schedule: Schedule, node: ScheduleNode, marking: Marking) -> str:
        return generator.choice(sorted(node.edges))

    return resolve


@dataclass
class RunSegment:
    """The service of one environment event: a path between await nodes."""

    event: str
    start_node: int
    end_node: int
    transitions: List[str] = field(default_factory=list)


@dataclass
class Run:
    """A run of a set of schedules with respect to an input sequence."""

    segments: List[RunSegment] = field(default_factory=list)
    final_marking: Optional[Marking] = None

    def transition_sequence(self) -> List[str]:
        sequence: List[str] = []
        for segment in self.segments:
            sequence.extend(segment.transitions)
        return sequence

    def __len__(self) -> int:
        return len(self.segments)


def build_run(
    schedules: Mapping[str, Schedule],
    events: Sequence[str],
    *,
    resolver: Optional[ChoiceResolver] = None,
    net: Optional[PetriNet] = None,
    max_steps_per_event: int = 100_000,
) -> Run:
    """Build a run of ``schedules`` for the event sequence ``events``.

    Each event must name an uncontrollable source transition with a schedule
    in ``schedules``.  The concatenated transition sequence is fired in the
    net (the net of the first schedule by default) and a :class:`RunError`
    is raised on the first non-enabled transition -- this is exactly the
    executability check of Definition 4.2.
    """
    if not schedules:
        raise RunError("no schedules supplied")
    resolver = resolver or first_choice_resolver
    reference_net = net or next(iter(schedules.values())).net
    # Fire on the indexed core: a tuple update per transition instead of a
    # dict copy + sorted-tuple hash per Marking.
    inet = reference_net.indexed()
    vec = inet.initial_vec
    tindex = inet.transition_index

    # current await node per schedule (the root until its first event)
    positions: Dict[str, int] = {}

    run = Run()
    for event in events:
        if event not in schedules:
            raise RunError(f"no schedule for event {event!r}")
        schedule = schedules[event]
        start = positions.get(event, schedule.root)
        segment = RunSegment(event=event, start_node=start, end_node=start)

        def choose(node: ScheduleNode) -> str:
            return resolver(schedule, node, inet.marking_of_vec(vec))

        # The walk starts with the event's own edge (property 2 of Definition
        # 4.1) and stops at the next await node (property 1).
        try:
            for transition, node in schedule.reaction(
                start, event, choose, max_steps=max_steps_per_event
            ):
                segment.transitions.append(transition)
                tid = tindex.get(transition)
                if tid is None or not inet.is_enabled_vec(tid, vec):
                    raise RunError(
                        f"run is not fireable: transition {transition!r} not enabled at "
                        f"{inet.marking_of_vec(vec).pretty()} (event {event!r})"
                    )
                vec = inet.fire_vec(tid, vec)
                segment.end_node = node.index
        except ReactionError as error:
            raise RunError(f"schedule for {event!r}: {error}") from error
        positions[event] = segment.end_node
        run.segments.append(segment)

    run.final_marking = inet.marking_of_vec(vec)
    return run


def check_executability(
    schedules: Mapping[str, Schedule],
    event_sequences: Sequence[Sequence[str]],
    *,
    resolvers: Sequence[ChoiceResolver] = (),
    net: Optional[PetriNet] = None,
) -> bool:
    """Check executability of a set of schedules over several input sequences.

    This is a dynamic (testing) check complementing the static independence
    criterion: it builds a run for every sequence (and every resolver) and
    verifies fireability.  Returns True when every run succeeds.
    """
    all_resolvers: List[ChoiceResolver] = list(resolvers) or [first_choice_resolver]
    for sequence in event_sequences:
        for resolver in all_resolvers:
            try:
                build_run(schedules, sequence, resolver=resolver, net=net)
            except RunError:
                return False
    return True
