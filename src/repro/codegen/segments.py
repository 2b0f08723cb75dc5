"""Threads and code segments (Sections 6.1 and 6.2).

A *thread* is the portion of a schedule between an await node and the next
await nodes: the reaction to one environment event.  A *code segment* is the
unit of generated code: a tree of ECSs shared by one or more threads, so that
the code of each ECS is emitted exactly once no matter how many schedule nodes
carry it.

The construction below is an equivalent reformulation of the paper's
traverse / compare algorithm.  Schedule nodes are grouped by their ECS (node
equivalence of Section 6.1); for every ECS and outgoing transition we record
whether the successor ECS is the same for all corresponding schedule nodes:

* if it is, and the successor ECS has no other predecessor, the successor is
  inlined as a child inside the same code segment;
* otherwise the branch ends with a *jump*: deterministic (``goto`` /
  ``return``) when the successor ECS is unique, or a state-indexed switch when
  different schedule nodes continue differently (the "jump" section of
  Section 6.4.3).

The result satisfies the two properties stated at the end of Section 6.2: the
whole schedule is covered, and the executable code of each ECS is emitted
exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.scheduling.schedule import Schedule, ScheduleNode

ECS = FrozenSet[str]


# ---------------------------------------------------------------------------
# Threads (Section 6.1)
# ---------------------------------------------------------------------------


@dataclass
class Thread:
    """The reaction starting at one await node of the schedule."""

    start_node: int
    nodes: Set[int] = field(default_factory=set)
    end_nodes: Set[int] = field(default_factory=set)

    def __len__(self) -> int:
        return len(self.nodes)


def extract_threads(schedule: Schedule) -> List[Thread]:
    """One thread per await node whose outgoing edge is the schedule's source."""
    await_indices = {node.index for node in schedule.await_nodes()}
    threads: List[Thread] = []
    for start in sorted(await_indices):
        node = schedule.node(start)
        if schedule.source_transition not in node.edges:
            continue
        thread = Thread(start_node=start)
        thread.nodes.add(start)
        stack = [node.edges[schedule.source_transition]]
        while stack:
            current = stack.pop()
            if current in thread.nodes and current != start:
                continue
            thread.nodes.add(current)
            if current in await_indices:
                thread.end_nodes.add(current)
                continue
            for target in schedule.node(current).edges.values():
                stack.append(target)
        threads.append(thread)
    return threads


def threads_are_equivalent(schedule: Schedule, first: Thread, second: Thread) -> bool:
    """Thread equivalence of Section 6.1: identical graphs of ECS labels."""

    def signature(thread: Thread) -> Tuple:
        items = []
        mapping = {}

        def canonical(index: int) -> int:
            if index not in mapping:
                mapping[index] = len(mapping)
            return mapping[index]

        stack = [thread.start_node]
        seen = set()
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            node = schedule.node(current)
            edges = []
            for transition, target in sorted(node.edges.items()):
                if target in thread.nodes:
                    edges.append((transition, canonical(target)))
                    if target not in seen and current not in thread.end_nodes:
                        stack.append(target)
            items.append((canonical(current), tuple(edges)))
        return tuple(sorted(items))

    return signature(first) == signature(second)


# ---------------------------------------------------------------------------
# Code segments (Section 6.2)
# ---------------------------------------------------------------------------


@dataclass
class JumpCase:
    """One alternative of a non-deterministic jump: the schedule node the
    branch reaches (the jump switch discriminates on its marking vector) and
    the ECS that continues from there."""

    node: ScheduleNode
    target_ecs: ECS
    is_return: bool


@dataclass
class JumpSpec:
    """Continuation of a branch that is not inlined in the segment."""

    deterministic: bool
    target_ecs: Optional[ECS] = None  # for deterministic jumps
    is_return: bool = False  # deterministic jump to an await node
    cases: List[JumpCase] = field(default_factory=list)


@dataclass
class CodeSegmentNode:
    """One ECS inside a code segment."""

    ecs: ECS
    # the schedule nodes represented by this node
    states: List[ScheduleNode] = field(default_factory=list)
    # inlined continuations: transition -> child node (same segment)
    children: Dict[str, "CodeSegmentNode"] = field(default_factory=dict)
    # non-inlined continuations: transition -> jump specification
    jumps: Dict[str, JumpSpec] = field(default_factory=dict)

    def subtree(self) -> List["CodeSegmentNode"]:
        nodes = [self]
        for child in self.children.values():
            nodes.extend(child.subtree())
        return nodes


@dataclass
class CodeSegment:
    """A tree of code-segment nodes, entered at its root."""

    root: CodeSegmentNode

    def nodes(self) -> List[CodeSegmentNode]:
        return self.root.subtree()

    def __len__(self) -> int:
        return len(self.nodes())


@dataclass
class SegmentSet:
    """All code segments of one task plus lookup tables."""

    schedule: Schedule
    source_ecs: ECS
    segments: List[CodeSegment] = field(default_factory=list)
    node_by_ecs: Dict[ECS, CodeSegmentNode] = field(default_factory=dict)

    def segment_for(self, ecs: ECS) -> CodeSegment:
        for segment in self.segments:
            if any(node.ecs == ecs for node in segment.nodes()):
                return segment
        raise KeyError(f"no segment contains ECS {sorted(ecs)}")

    @property
    def entry_segment(self) -> CodeSegment:
        """The segment containing the uncontrollable source (cs1)."""
        return self.segment_for(self.source_ecs)

    def state_places(self) -> List[str]:
        """Places needed as state variables (Section 6.4.1).

        The intersection of the places whose count is modified by involved
        transitions with the places needed to discriminate the jump switches
        and the thread selection.  The first are the places the involved
        transitions' deltas touch, so only those columns of the jump cases'
        marking vectors are compared.
        """
        inet = self.schedule.net.indexed()
        updated: Set[int] = set()
        for transition in self.schedule.involved_transitions():
            updated.update(pid for pid, _change in inet.delta[inet.transition_index[transition]])
        needed: Set[int] = set()
        for node in self.node_by_ecs.values():
            for jump in node.jumps.values():
                if jump.deterministic or len(jump.cases) < 2:
                    continue
                first, *others = [case.node.vec_in(inet) for case in jump.cases]
                for pid in updated - needed:
                    if any(vec[pid] != first[pid] for vec in others):
                        needed.add(pid)
        return [inet.place_names[pid] for pid in sorted(needed)]


def ecs_label(ecs: ECS) -> str:
    return "_".join(sorted(ecs))


def extract_code_segments(schedule: Schedule) -> SegmentSet:
    """Build the code segments of a schedule."""
    # ECS of each schedule node (label of its outgoing edges)
    ecs_of_node: Dict[int, ECS] = {}
    for node in schedule.nodes:
        transitions = frozenset(node.edges)
        ecs_of_node[node.index] = transitions

    source_ecs = ecs_of_node[schedule.root]

    # one code node per distinct ECS
    node_by_ecs: Dict[ECS, CodeSegmentNode] = {}
    for node in schedule.nodes:
        ecs = ecs_of_node[node.index]
        code_node = node_by_ecs.get(ecs)
        if code_node is None:
            code_node = CodeSegmentNode(ecs=ecs)
            node_by_ecs[ecs] = code_node
        code_node.states.append(node)

    # successor analysis: for each (ECS, transition), the successor
    # (schedule node, ECS) pairs over all schedule nodes carrying that ECS
    successors: Dict[Tuple[ECS, str], List[Tuple[ScheduleNode, ECS]]] = {}
    for node in schedule.nodes:
        ecs = ecs_of_node[node.index]
        for transition, target in node.edges.items():
            successors.setdefault((ecs, transition), []).append(
                (schedule.node(target), ecs_of_node[target])
            )

    await_ecss = {ecs_of_node[node.index] for node in schedule.await_nodes()}

    # deterministic successor ECS per (ECS, transition)
    deterministic_next: Dict[Tuple[ECS, str], Optional[ECS]] = {}
    for key, targets in successors.items():
        target_ecss = {target_ecs for _node, target_ecs in targets}
        deterministic_next[key] = next(iter(target_ecss)) if len(target_ecss) == 1 else None

    # choose inlined children: an ECS can be inlined under (parent, transition)
    # when that is its only deterministic predecessor edge, it is not the
    # source ECS, and inlining does not create a cycle.
    predecessor_edges: Dict[ECS, List[Tuple[ECS, str]]] = {ecs: [] for ecs in node_by_ecs}
    for (ecs, transition), target_ecs in deterministic_next.items():
        if target_ecs is not None:
            predecessor_edges[target_ecs].append((ecs, transition))

    parent_of: Dict[ECS, Tuple[ECS, str]] = {}
    for ecs, edges in predecessor_edges.items():
        if ecs == source_ecs or ecs in await_ecss:
            continue
        if len(edges) != 1:
            continue
        parent_ecs, transition = edges[0]
        if parent_ecs == ecs:
            continue
        parent_of[ecs] = (parent_ecs, transition)

    # break cycles in the parent assignment (each node has at most one parent,
    # so cycles are simple loops)
    def creates_cycle(child: ECS) -> bool:
        seen = {child}
        current = parent_of.get(child)
        while current is not None:
            parent = current[0]
            if parent in seen:
                return True
            seen.add(parent)
            current = parent_of.get(parent)
        return False

    for ecs in list(parent_of):
        if ecs in parent_of and creates_cycle(ecs):
            del parent_of[ecs]

    # attach children / jumps to the code nodes; an inlined child's edge has
    # a single deterministic target, so each (parent, transition) names one
    child_of: Dict[Tuple[ECS, str], ECS] = {edge: child for child, edge in parent_of.items()}
    for ecs, code_node in node_by_ecs.items():
        for transition in ecs:
            key = (ecs, transition)
            if key not in successors:
                continue
            child_assignment = child_of.get(key)
            if child_assignment is not None:
                code_node.children[transition] = node_by_ecs[child_assignment]
                continue
            targets = successors[key]
            unique_target = deterministic_next[key]
            if unique_target is not None:
                code_node.jumps[transition] = JumpSpec(
                    deterministic=True,
                    target_ecs=unique_target,
                    is_return=unique_target in await_ecss,
                )
            else:
                cases = [
                    JumpCase(
                        node=target_node,
                        target_ecs=target_ecs,
                        is_return=target_ecs in await_ecss,
                    )
                    for target_node, target_ecs in targets
                ]
                code_node.jumps[transition] = JumpSpec(deterministic=False, cases=cases)

    # segments: one per ECS without a parent assignment
    segments: List[CodeSegment] = []
    inlined = set(parent_of)
    ordered_roots = [source_ecs] + sorted(
        (ecs for ecs in node_by_ecs if ecs not in inlined and ecs != source_ecs),
        key=lambda e: ecs_label(e),
    )
    for root_ecs in ordered_roots:
        segments.append(CodeSegment(root=node_by_ecs[root_ecs]))

    return SegmentSet(
        schedule=schedule,
        source_ecs=source_ecs,
        segments=segments,
        node_by_ecs=node_by_ecs,
    )
