"""Direct unit tests of :mod:`repro.codegen.segments` edge cases.

Hand-built minimal schedules pin the threads (the reactions
:meth:`Schedule.reaction` walks) and code-segment construction at their
boundaries -- the empty reaction, single-transition reactions, unknown-ECS
lookups and await-node placement -- independently of the end-to-end codegen
tests.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.codegen.segments import ecs_label, extract_code_segments
from repro.petrinet.marking import Marking
from repro.petrinet.net import PetriNet, SourceKind
from repro.scheduling.schedule import Schedule


def _minimal_net() -> PetriNet:
    """src -> p -> consume, with src uncontrollable."""
    net = PetriNet("minimal")
    net.add_place("p")
    net.add_place("ctl", 1)
    net.add_transition("src", source_kind=SourceKind.UNCONTROLLABLE)
    net.add_transition("consume")
    net.add_arc("src", "p")
    net.add_arc("p", "consume")
    net.add_arc("ctl", "consume")
    net.add_arc("consume", "ctl")
    return net


def _single_reaction_schedule(net: PetriNet) -> Schedule:
    """root --src--> (p=1) --consume--> root."""
    schedule = Schedule(net=net, source_transition="src")
    schedule.add_node(Marking({"ctl": 1}))
    schedule.add_node(Marking({"ctl": 1, "p": 1}))
    schedule.add_edge(0, "src", 1)
    schedule.add_edge(1, "consume", 0)
    return schedule


def _empty_reaction_schedule() -> Schedule:
    """A source with no postset: the reaction does nothing at all."""
    net = PetriNet("empty")
    net.add_transition("src", source_kind=SourceKind.UNCONTROLLABLE)
    schedule = Schedule(net=net, source_transition="src")
    schedule.add_node(Marking({}))
    schedule.add_edge(0, "src", 0)
    return schedule


def _thread(schedule: Schedule, start: int):
    """The ``(transition, node index)`` steps of the reaction from ``start``
    (no choices on these schedules)."""
    steps = schedule.reaction(start, "src", lambda node: None, max_steps=10)
    return [(transition, node.index) for transition, node in steps]


class TestThreads:
    def test_single_reaction_thread(self):
        schedule = _single_reaction_schedule(_minimal_net())
        assert [node.index for node in schedule.await_nodes()] == [0]
        # the reaction terminates back at the await node
        assert _thread(schedule, 0) == [("src", 1), ("consume", 0)]

    def test_empty_reaction_thread(self):
        schedule = _empty_reaction_schedule()
        assert _thread(schedule, 0) == [("src", 0)]


class TestSegments:
    def test_single_reaction_segments(self):
        schedule = _single_reaction_schedule(_minimal_net())
        segments = extract_code_segments(schedule)
        assert segments.source_ecs == frozenset({"src"})
        # consume is inlined under the entry segment: one segment, two nodes
        assert len(segments.segments) == 1
        assert len(segments.entry_segment) == 2
        child = segments.entry_segment.root.children["src"]
        assert child.ecs == frozenset({"consume"})
        # the reaction's last transition returns to the await node
        jump = child.jumps["consume"]
        assert jump.deterministic and jump.is_return
        # no state-indexed switches anywhere, so no state variables either
        assert segments.state_places() == []

    def test_empty_reaction_segment(self):
        schedule = _empty_reaction_schedule()
        segments = extract_code_segments(schedule)
        assert len(segments.segments) == 1
        assert len(segments.entry_segment) == 1
        jump = segments.entry_segment.root.jumps["src"]
        assert jump.deterministic and jump.is_return

    def test_segment_for_unknown_ecs_raises(self):
        schedule = _single_reaction_schedule(_minimal_net())
        segments = extract_code_segments(schedule)
        with pytest.raises(KeyError):
            segments.segment_for(frozenset({"no_such_transition"}))

    def test_ecs_label_is_sorted_and_stable(self):
        assert ecs_label(frozenset({"b", "a"})) == "a_b"


class TestAwaitPlacement:
    """Await nodes must stay segment roots -- never inlined mid-segment."""

    def test_await_ecs_is_never_an_inlined_child(self, divisors_schedule):
        segments = extract_code_segments(divisors_schedule)
        await_ecss = {
            frozenset(node.edges) for node in divisors_schedule.await_nodes()
        }
        inlined = {
            child.ecs
            for segment in segments.segments
            for node in segment.nodes()
            for child in node.children.values()
        }
        assert not (await_ecss & inlined)

    def test_each_ecs_emitted_exactly_once(self, divisors_schedule):
        """Section 6.2's property: full coverage, one emission per ECS."""
        segments = extract_code_segments(divisors_schedule)
        emitted = [
            node.ecs for segment in segments.segments for node in segment.nodes()
        ]
        assert len(emitted) == len(set(emitted))
        assert set(emitted) == set(segments.node_by_ecs)

    def test_threads_start_and_end_on_await_nodes(self, divisors_schedule):
        """Reaction after reaction, each choice taking its least-walked edge,
        until the reactions have walked every edge of the schedule: each one
        starts where the last ended, at an await node, and ends at one."""
        schedule = divisors_schedule
        await_indices = {node.index for node in schedule.await_nodes()}
        edges = sum(node.out_degree for node in schedule.nodes)
        walked = Counter()

        def least_walked(node):
            return min(sorted(node.edges), key=lambda t: walked[node.index, t])

        start = schedule.root
        for _reaction in range(1000):
            if len(walked) == edges:
                break
            assert start in await_indices
            node = schedule.node(start)
            for transition, reached in schedule.reaction(
                start, schedule.source_transition, least_walked, max_steps=10_000
            ):
                walked[node.index, transition] += 1
                node = reached
            assert node.index in await_indices
            start = node.index
        assert len(walked) == edges
