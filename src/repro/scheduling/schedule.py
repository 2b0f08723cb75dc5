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
*single source schedule* (SS schedule).  The reaction to one event walks the
schedule from an await node to the next one (:meth:`Schedule.reaction`): a
segment of a run (Definition 4.1), a thread (Section 6.1) and one
invocation of the generated ISR (Section 6.4) all follow that walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from repro.petrinet.analysis import StructuralAnalysis
from repro.petrinet.indexed import IndexedNet, MarkingVec
from repro.petrinet.marking import Marking
from repro.petrinet.net import PetriNet


class ScheduleValidationError(Exception):
    """Raised when a graph violates one of the five schedule properties."""


class ReactionError(Exception):
    """Raised when a schedule cannot walk the reaction to an event."""


class ScheduleNode:
    """One node of a schedule: a marking plus its outgoing edges.

    The marking is held as a vector of token counts in the place order of the
    :class:`~repro.petrinet.indexed.IndexedNet` snapshot it came from: the
    form the EP search builds it in, and the one validation, the place
    bounds, code generation and serialisation read (:meth:`vec_in`).
    ``marking``, the name-keyed :class:`Marking`, is a lazy view of that
    vector, built on first read and kept.

    ``ScheduleNode(index, marking, edges)`` and assignment to ``marking``
    make a node from a name-keyed marking instead (a hand-built or
    deserialised schedule); its vector is converted from it once, on first
    use.
    """

    __slots__ = ("index", "edges", "_marking", "_vec", "_snapshot", "_foreign")

    def __init__(
        self,
        index: int,
        marking: Optional[Marking] = None,
        edges: Optional[Dict[str, int]] = None,
        *,
        vec: Optional[MarkingVec] = None,
        snapshot: Optional[IndexedNet] = None,
    ):
        if (marking is None) == (vec is None) or (vec is None) != (snapshot is None):
            raise TypeError("a schedule node takes a marking, or a vector and its snapshot")
        self.index = index
        # transition name -> index of the successor node
        self.edges: Dict[str, int] = {} if edges is None else edges
        self._marking = marking
        self._vec = vec
        self._snapshot = snapshot
        self._foreign: Tuple[Tuple[str, int], ...] = ()

    @property
    def marking(self) -> Marking:
        """The name-keyed marking: a lazy view of the vector, kept once built."""
        if self._marking is None:
            self._marking = self._snapshot.marking_of_vec(self._vec)
        return self._marking

    @marking.setter
    def marking(self, marking: Marking) -> None:
        self._marking = marking
        self._vec = self._snapshot = None
        self._foreign = ()

    def vec_in(self, inet: IndexedNet) -> MarkingVec:
        """The marking as a vector in the place order of ``inet``.

        A vector belongs to the snapshot it came from and is never indexed
        with another one.  A node built from a marking, or whose net was
        rebuilt since (:meth:`PetriNet.indexed`), converts :attr:`marking`
        once per snapshot.  Places of the marking that ``inet`` lacks have no
        column; they are kept aside, and :meth:`Schedule.validate` compares
        them as the name-keyed check did, so such a node is never valid.
        """
        if self._snapshot is not inet:
            marking = self.marking
            known = inet.place_index
            self._vec = inet.vec_of_marking(marking)
            self._foreign = tuple(
                sorted((place, count) for place, count in marking.items() if place not in known)
            )
            self._snapshot = inet
        return self._vec

    @property
    def foreign(self) -> Tuple[Tuple[str, int], ...]:
        """The ``(place, count)`` pairs of the marking that name places the
        snapshot of the last :meth:`vec_in` lacks: empty for every node of a
        valid schedule, since no firing reaches such a place."""
        return self._foreign

    @property
    def out_degree(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:
        return f"ScheduleNode(index={self.index}, marking={self.marking!r}, edges={self.edges!r})"


def _awaits(node: ScheduleNode, uncontrollable: FrozenSet[str]) -> bool:
    """The await test: an edge out of ``node`` carries an uncontrollable source."""
    return not uncontrollable.isdisjoint(node.edges)


@dataclass
class Schedule:
    """A schedule for a source transition over a given Petri net.

    Its nodes carry their markings as vectors of the net's indexed snapshot
    (see :class:`ScheduleNode`) from the EP search through validation, code
    generation and serialisation; a name-keyed :class:`Marking` is built
    only for a caller that reads ``node.marking``.
    """

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

    def involved_places(self) -> Set[str]:
        """Places whose token count the schedule can observe or modify.

        The paper defines an involved place as a predecessor of an involved
        transition (Definition 4.3).  The successors count too: a place whose
        count one schedule modifies must not be relied upon by another, so
        the independence check (:mod:`repro.scheduling.independence`) reads
        this conservative set.
        """
        places: Set[str] = set()
        for transition in self.involved_transitions():
            places.update(self.net.pre[transition])
            places.update(self.net.post[transition])
        return places

    def await_nodes(self) -> List[ScheduleNode]:
        """Nodes whose outgoing edge carries an uncontrollable source."""
        uncontrollable = StructuralAnalysis.of(self.net).uncontrollable
        return [node for node in self.nodes if _awaits(node, uncontrollable)]

    def is_single_source(self) -> bool:
        """True if all await nodes use the schedule's own source transition."""
        own = {self.source_transition}
        uncontrollable = StructuralAnalysis.of(self.net).uncontrollable
        return all(uncontrollable.intersection(node.edges) == own for node in self.await_nodes())

    def place_bounds(self) -> Dict[str, int]:
        """Maximum token count per place over all nodes of the schedule.

        For an independent set of SS schedules these are tight upper bounds on
        channel occupancy during execution (Proposition 4.2), i.e. the channel
        sizes the implementation needs.  They are the column maxima of the
        nodes' marking vectors.
        """
        inet = self.net.indexed()
        vecs = [node.vec_in(inet) for node in self.nodes]
        maxima = [max(column) for column in zip(*vecs)] if vecs else [0] * len(inet.place_names)
        index = inet.place_index
        return {place: maxima[index[place]] for place in self.net.places}

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
    def reaction(
        self,
        start: int,
        event: str,
        choose: Callable[[ScheduleNode], str],
        *,
        max_steps: int,
    ) -> Iterator[Tuple[str, ScheduleNode]]:
        """Walk the reaction to ``event`` from the await node ``start``.

        Yields ``(transition, node reached)`` for each edge taken: first the
        edge of ``event`` itself, then the only edge of each node, or at a
        choice the edge ``choose(node)`` names, up to and including the next
        await node.  Raises :class:`ReactionError` when ``start`` has no edge
        for ``event``, a node reached has no edges, ``choose`` names no edge
        of its node, or the walk takes more than ``max_steps`` edges.

        >>> from repro.apps import paper_nets
        >>> from repro.scheduling.ep import find_schedule
        >>> schedule = find_schedule(paper_nets.figure_8(), "a").schedule
        >>> last = lambda node: max(node.edges)
        >>> [(t, node.index) for t, node in schedule.reaction(0, "a", last, max_steps=9)]
        [('a', 1), ('c', 3)]
        """
        uncontrollable = StructuralAnalysis.of(self.net).uncontrollable
        node = self.nodes[start]
        if event not in node.edges:
            raise ReactionError(f"node {start} has no edge for {event!r}")
        transition = event
        steps = 0
        while True:
            node = self.nodes[node.edges[transition]]
            yield transition, node
            steps += 1
            if steps > max_steps:
                raise ReactionError(f"the reaction to {event!r} took more than {max_steps} steps")
            edges = node.edges
            if _awaits(node, uncontrollable):
                return
            if len(edges) == 1:
                transition = next(iter(edges))
            elif not edges:
                raise ReactionError(f"node {node.index} has no outgoing edges")
            else:
                transition = choose(node)
                if transition not in edges:
                    raise ReactionError(f"{transition!r} is not an edge of node {node.index}")

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
        predecessors: Dict[int, List[int]] = {node.index: [] for node in self.nodes}
        for node in self.nodes:
            for target in node.edges.values():
                predecessors[target].append(node.index)
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
    def validate(self) -> None:
        """Check the five Section 4.1 schedule properties, raising
        :class:`ScheduleValidationError` on the first violation: root carries
        the initial marking with out-degree 1, the root edge fires the source
        transition, outgoing edges form whole ECSs of enabled transitions,
        edges fire correctly (target = marking after firing), and every node
        lies on a directed cycle through the root.  A root that is not a
        node, or an edge naming a transition the net lacks or a target that
        is not a node, is refused first, as a violation of the node it
        belongs to.

        The checks read the nodes' marking vectors in the net's current
        indexed snapshot and its ``consume`` and ``delta`` tables, and the
        ECSs of :meth:`StructuralAnalysis.of`; no name-keyed marking is built
        unless a message prints one."""
        if not self.nodes:
            raise ScheduleValidationError("schedule has no nodes")
        inet = self.net.indexed()
        consume, delta, transition_index = inet.consume, inet.delta, inet.transition_index
        count = len(self.nodes)
        if not 0 <= self.root < count:
            raise ScheduleValidationError(f"root {self.root} is not a node of the schedule")
        for node in self.nodes:
            for transition, target in node.edges.items():
                if transition not in transition_index:
                    raise ScheduleValidationError(
                        f"node {node.index}: {transition!r} is not a transition of the net"
                    )
                if not 0 <= target < count:
                    raise ScheduleValidationError(
                        f"node {node.index}: the edge {transition!r} leads to {target}, not a node"
                    )
        analysis = StructuralAnalysis.of(self.net)
        vecs = [node.vec_in(inet) for node in self.nodes]
        root = self.root_node
        # property 1: the root carries the initial marking and has out-degree 1
        if vecs[self.root] != inet.initial_vec or root.foreign:
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
        # properties 3 and 4: each edge's transition is enabled at its
        # source vector (consume) and moves it onto its target's (delta)
        foreign = [node.foreign for node in self.nodes]
        for node, vec, own_foreign in zip(self.nodes, vecs, foreign):
            if not node.edges:
                raise ScheduleValidationError(f"node {node.index} has no outgoing edges")
            transitions = frozenset(node.edges)
            ecs = analysis.ecs_of(next(iter(transitions)))
            if transitions != ecs:
                raise ScheduleValidationError(
                    f"node {node.index}: outgoing transitions {sorted(transitions)} are not the ECS {sorted(ecs)}"
                )
            for transition, target in node.edges.items():
                tid = transition_index[transition]
                for pid, weight in consume[tid]:
                    if vec[pid] < weight:
                        raise ScheduleValidationError(
                            f"node {node.index}: transition {transition!r} is not enabled at {node.marking.pretty()}"
                        )
                successor = list(vec)
                for pid, change in delta[tid]:
                    successor[pid] += change
                if tuple(successor) != vecs[target] or own_foreign != foreign[target]:
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
