"""Schedule graphs (Section 4.1 of the paper).

A schedule for an uncontrollable source transition ``a`` is a directed graph
whose nodes carry markings and whose edges carry transitions, with five
properties:

1. the distinguished node ``r`` carries the initial marking and has
   out-degree 1;
2. the edge out of ``r`` is associated with ``a``;
3. for each node ``v``, the transitions on the edges out of ``v`` form an ECS
   enabled at ``M(v)``;
4. for each edge ``(u, v)``, firing its transition at ``M(u)`` yields ``M(v)``;
5. every node lies on a directed cycle through ``r``.

A node whose outgoing edge carries an uncontrollable source transition is an
*await node*; a schedule whose await nodes all carry the same source is a
*single source schedule* (SS schedule).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.petrinet.analysis import StructuralAnalysis
from repro.petrinet.marking import Marking
from repro.petrinet.net import PetriNet


class ScheduleValidationError(Exception):
    """Raised when a graph violates one of the five schedule properties."""


@dataclass
class ScheduleNode:
    """One node of a schedule: a marking plus its outgoing edges."""

    index: int
    marking: Marking
    # transition name -> index of the successor node
    edges: Dict[str, int] = field(default_factory=dict)

    @property
    def out_degree(self) -> int:
        return len(self.edges)

    def transitions(self) -> FrozenSet[str]:
        return frozenset(self.edges)


@dataclass
class Schedule:
    """A schedule for a source transition over a given Petri net."""

    net: PetriNet
    source_transition: str
    nodes: List[ScheduleNode] = field(default_factory=list)
    root: int = 0

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def add_node(self, marking: Marking) -> ScheduleNode:
        """Append a node carrying ``marking``; its index is assigned densely."""
        node = ScheduleNode(index=len(self.nodes), marking=marking)
        self.nodes.append(node)
        return node

    def add_edge(self, source: int, transition: str, target: int) -> None:
        """Add the edge ``source --transition--> target`` (one per transition)."""
        if transition in self.nodes[source].edges:
            raise ScheduleValidationError(
                f"node {source} already has an edge for transition {transition!r}"
            )
        self.nodes[source].edges[transition] = target

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def root_node(self) -> ScheduleNode:
        """The node carrying the initial marking (entry of every reaction)."""
        return self.nodes[self.root]

    def node(self, index: int) -> ScheduleNode:
        """The node at ``index`` (dense, 0-based)."""
        return self.nodes[index]

    def edges(self) -> Iterable[Tuple[int, str, int]]:
        """Every edge as a ``(source_index, transition, target_index)`` triple."""
        for node in self.nodes:
            for transition, target in node.edges.items():
                yield node.index, transition, target

    def involved_transitions(self) -> Set[str]:
        """Transitions associated with at least one edge of the schedule."""
        result: Set[str] = set()
        for _source, transition, _target in self.edges():
            result.add(transition)
        return result

    def involved_places(self, *, include_postsets: bool = False) -> Set[str]:
        """Places that are predecessors of involved transitions.

        With ``include_postsets`` the successors of involved transitions are
        included as well (useful for channel-bound reporting).
        """
        places: Set[str] = set()
        for transition in self.involved_transitions():
            places.update(self.net.pre[transition])
            if include_postsets:
                places.update(self.net.post[transition])
        return places

    def await_nodes(self) -> List[ScheduleNode]:
        """Nodes whose outgoing edge carries an uncontrollable source."""
        uncontrollable = set(self.net.uncontrollable_sources())
        result = []
        for node in self.nodes:
            if any(transition in uncontrollable for transition in node.edges):
                result.append(node)
        return result

    def is_single_source(self) -> bool:
        """True if all await nodes use the schedule's own source transition."""
        uncontrollable = set(self.net.uncontrollable_sources())
        for node in self.nodes:
            for transition in node.edges:
                if transition in uncontrollable and transition != self.source_transition:
                    return False
        return True

    def place_bounds(self) -> Dict[str, int]:
        """Maximum token count per place over all nodes of the schedule.

        For an independent set of SS schedules these are tight upper bounds on
        channel occupancy during execution (Proposition 4.2), i.e. the channel
        sizes the implementation needs.
        """
        bounds: Dict[str, int] = {place: 0 for place in self.net.places}
        for node in self.nodes:
            for place, count in node.marking.items():
                if count > bounds[place]:
                    bounds[place] = count
        return bounds

    def channel_bounds(self) -> Dict[str, int]:
        """Bounds restricted to port/channel places."""
        bounds = self.place_bounds()
        return {
            place: bound
            for place, bound in bounds.items()
            if self.net.places[place].is_port
        }

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def successors(self, index: int) -> List[int]:
        """Distinct target node indices of the edges out of ``index``."""
        return sorted(set(self.nodes[index].edges.values()))

    def reachable_from_root(self) -> Set[int]:
        """Indices of every node reachable from the root along edges."""
        seen: Set[int] = set()
        stack = [self.root]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self.nodes[current].edges.values())
        return seen

    def nodes_reaching_root(self) -> Set[int]:
        """Nodes with a directed path back to the root."""
        predecessors: Dict[int, Set[int]] = {node.index: set() for node in self.nodes}
        for source, _transition, target in self.edges():
            predecessors[target].add(source)
        seen: Set[int] = set()
        stack = [self.root]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(predecessors[current])
        return seen

    # ------------------------------------------------------------------
    # validation (the five properties of Section 4.1)
    # ------------------------------------------------------------------
    def validate(self, analysis: Optional[StructuralAnalysis] = None) -> None:
        """Check the five Section 4.1 schedule properties, raising
        :class:`ScheduleValidationError` on the first violation: root carries
        the initial marking with out-degree 1, the root edge fires the source
        transition, outgoing edges form whole ECSs of enabled transitions,
        edges fire correctly (target = marking after firing), and every node
        lies on a directed cycle through the root."""
        if analysis is None:
            analysis = StructuralAnalysis.of(self.net)
        if not self.nodes:
            raise ScheduleValidationError("schedule has no nodes")
        root = self.root_node
        # property 1: the root carries the initial marking and has out-degree 1
        if root.marking != self.net.initial_marking:
            raise ScheduleValidationError("root node does not carry the initial marking")
        if root.out_degree != 1:
            raise ScheduleValidationError(
                f"root node must have out-degree 1, has {root.out_degree}"
            )
        # property 2: the edge out of the root carries the source transition
        root_transition = next(iter(root.edges))
        if root_transition != self.source_transition:
            raise ScheduleValidationError(
                f"edge out of the root carries {root_transition!r}, expected {self.source_transition!r}"
            )
        # properties 3 and 4, on plain dicts: each node's token counts, each
        # transition's preset (net.pre) and token delta (deltas_by_name)
        pre = self.net.pre
        indexed = self.net.indexed()
        deltas, transition_index = indexed.deltas_by_name, indexed.transition_index
        counts = [node.marking.as_dict() for node in self.nodes]
        for node, tokens in zip(self.nodes, counts):
            if not node.edges:
                raise ScheduleValidationError(f"node {node.index} has no outgoing edges")
            transitions = frozenset(node.edges)
            ecs = analysis.ecs_of(next(iter(transitions)))
            if transitions != ecs:
                raise ScheduleValidationError(
                    f"node {node.index}: outgoing transitions {sorted(transitions)} are not the ECS {sorted(ecs)}"
                )
            for transition, target in node.edges.items():
                for place, weight in pre[transition].items():
                    if tokens.get(place, 0) < weight:
                        raise ScheduleValidationError(
                            f"node {node.index}: transition {transition!r} is not enabled at {node.marking.pretty()}"
                        )
                successor = dict(tokens)
                for place, delta in deltas[transition_index[transition]].items():
                    count = successor.get(place, 0) + delta
                    if count:
                        successor[place] = count
                    else:
                        del successor[place]
                if successor != counts[target]:
                    raise ScheduleValidationError(
                        f"edge {node.index} --{transition}--> {target}: marking mismatch"
                    )
        # property 5: every node is on a cycle through the root
        reachable = self.reachable_from_root()
        reaching = self.nodes_reaching_root()
        for node in self.nodes:
            if node.index not in reachable or node.index not in reaching:
                raise ScheduleValidationError(
                    f"node {node.index} is not on a directed cycle through the root"
                )

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def to_dot(self) -> str:
        """Graphviz rendering (await nodes drawn as double circles)."""
        await_indices = {node.index for node in self.await_nodes()}
        lines = [f'digraph "schedule_{self.source_transition}" {{']
        for node in self.nodes:
            shape = "doublecircle" if node.index in await_indices else "circle"
            label = f"{node.index}\\n{node.marking.pretty()}"
            lines.append(f'  n{node.index} [shape={shape}, label="{label}"];')
        for source, transition, target in self.edges():
            lines.append(f'  n{source} -> n{target} [label="{transition}"];')
        lines.append("}")
        return "\n".join(lines)

    def describe(self) -> str:
        """Human-readable dump: header plus one line per edge."""
        lines = [
            f"schedule for {self.source_transition}: {len(self.nodes)} nodes, "
            f"{sum(node.out_degree for node in self.nodes)} edges, "
            f"{len(self.await_nodes())} await node(s)"
        ]
        for node in self.nodes:
            for transition, target in sorted(node.edges.items()):
                lines.append(
                    f"  {node.index} [{node.marking.pretty()}] --{transition}--> {target}"
                )
        return "\n".join(lines)
