"""Reachability graph and tree exploration.

The reachability graph of the linked net is infinite in general (because of
source transitions), so exploration is always bounded, either by an explicit
node budget, a marking predicate (e.g. place bounds), or a token cap.  The
scheduler in :mod:`repro.scheduling` builds its own tree; this module serves
the analyses that need plain reachability: the semantic unique-choice check,
boundedness diagnostics, and tests against the small nets from the paper's
figures.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.petrinet.marking import Marking
from repro.petrinet.net import PetriNet


@dataclass
class ReachabilityNode:
    """A node of the reachability graph: one reachable marking."""

    index: int
    marking: Marking
    # successors: transition name -> index of the successor node
    successors: Dict[str, int] = field(default_factory=dict)


@dataclass
class ReachabilityGraph:
    """Explicit reachability graph over a (bounded) set of markings."""

    net: PetriNet
    nodes: List[ReachabilityNode] = field(default_factory=list)
    index_of: Dict[Marking, int] = field(default_factory=dict)
    complete: bool = True

    @property
    def markings(self) -> List[Marking]:
        return [node.marking for node in self.nodes]

    def __len__(self) -> int:
        return len(self.nodes)

    def edges(self) -> Iterable[Tuple[Marking, str, Marking]]:
        for node in self.nodes:
            for transition, target in node.successors.items():
                yield node.marking, transition, self.nodes[target].marking

    def max_tokens_per_place(self) -> Dict[str, int]:
        """Maximum observed token count per place over all explored markings."""
        result: Dict[str, int] = {place: 0 for place in self.net.places}
        for node in self.nodes:
            for place, count in node.marking.items():
                if count > result[place]:
                    result[place] = count
        return result


def build_reachability_graph(
    net: PetriNet,
    *,
    max_nodes: int = 10000,
    max_tokens_per_place: Optional[int] = None,
) -> ReachabilityGraph:
    """Breadth-first exploration of the reachability graph.

    Parameters
    ----------
    max_nodes:
        Hard cap on the number of distinct markings explored; a graph it
        cut is flagged ``complete=False``.
    max_tokens_per_place:
        Convenience cut-off: markings where any place exceeds this count are
        not expanded.  This corresponds to exploring with uniform pre-defined
        place bounds (the approach of [13] discussed in Section 4.4).
    """
    # The exploration runs on the indexed core: markings are dense tuples,
    # firing applies precomputed deltas, and each node's enabled set is
    # derived incrementally from its BFS predecessor's.  The public graph
    # still exposes facade Markings (one conversion per distinct node).
    indexed = net.indexed()
    graph = ReachabilityGraph(net=net)
    initial_vec = indexed.initial_vec
    initial = indexed.marking_of_vec(initial_vec)
    graph.nodes.append(ReachabilityNode(index=0, marking=initial))
    graph.index_of[initial] = 0
    index_of_vec = {initial_vec: 0}
    vecs = [initial_vec]
    enabled_sets: List[Optional[frozenset]] = [None]
    frontier = deque([0])
    transition_names = indexed.transition_names

    while frontier:
        index = frontier.popleft()
        node = graph.nodes[index]
        if max_tokens_per_place is not None and any(
            count > max_tokens_per_place for count in node.marking.values()
        ):
            continue
        vec = vecs[index]
        enabled = enabled_sets[index]
        if enabled is None:
            enabled = frozenset(indexed.enabled_vec(vec))
            enabled_sets[index] = enabled
        # ascending transition ID == ascending name: matches the facade order
        for tid in sorted(enabled):
            successor_vec = indexed.fire_vec(tid, vec)
            transition = transition_names[tid]
            existing = index_of_vec.get(successor_vec)
            if existing is not None:
                node.successors[transition] = existing
                continue
            if len(graph.nodes) >= max_nodes:
                graph.complete = False
                continue
            new_index = len(graph.nodes)
            successor = indexed.marking_of_vec(successor_vec)
            graph.nodes.append(ReachabilityNode(index=new_index, marking=successor))
            graph.index_of[successor] = new_index
            index_of_vec[successor_vec] = new_index
            vecs.append(successor_vec)
            enabled_sets.append(indexed.enabled_after(enabled, tid, successor_vec))
            node.successors[transition] = new_index
            frontier.append(new_index)
    return graph


def reachable_markings(
    net: PetriNet,
    *,
    max_nodes: int = 10000,
    max_tokens_per_place: Optional[int] = None,
) -> List[Marking]:
    """Convenience wrapper returning just the explored markings."""
    graph = build_reachability_graph(
        net, max_nodes=max_nodes, max_tokens_per_place=max_tokens_per_place
    )
    return graph.markings


def is_bounded(
    net: PetriNet,
    bound: int,
    *,
    max_nodes: int = 10000,
) -> bool:
    """Heuristic boundedness check: explore up to ``max_nodes`` markings and
    report whether any place ever exceeds ``bound`` tokens.

    A ``False`` result is definitive (a violating marking was found), and so
    is a ``True`` from a complete exploration.  A ``True`` from an
    exploration that ``max_nodes`` cut is undecided: it comes with a
    ``RuntimeWarning`` naming the net, the budget and the bound.
    """
    graph = build_reachability_graph(net, max_nodes=max_nodes)
    if max(graph.max_tokens_per_place().values(), default=0) > bound:
        return False
    if not graph.complete:
        warnings.warn(
            f"boundedness of net {net.name!r} undecided: exploration cut at "
            f"max_nodes={max_nodes} with no place above bound={bound}",
            RuntimeWarning,
            stacklevel=2,
        )
    return True


def find_deadlocks(
    net: PetriNet,
    *,
    max_nodes: int = 10000,
) -> List[Marking]:
    """Markings (within the explored prefix) with no enabled transition.

    Source transitions do not count as enabling the marking -- a marking
    whose only activity is an environment input is still a "system
    deadlock" from the scheduler's perspective.
    """
    graph = build_reachability_graph(net, max_nodes=max_nodes)
    deadlocks = []
    for node in graph.nodes:
        if not any(net.pre[t] for t in net.enabled_transitions(node.marking)):
            deadlocks.append(node.marking)
    return deadlocks
