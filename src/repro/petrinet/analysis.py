"""Structural analysis of Petri nets.

This module implements the structural notions of Section 2 and 4.4 of the
paper:

* **Equal conflict sets (ECS)** -- the equivalence classes of non-source
  transitions under "equal conflict" (identical presets, weights included).
  Each source transition forms its own singleton ECS.
* **Choice place classification** -- a choice place is *equal* if all its
  successors belong to one ECS; it is *unique* if at most one successor can be
  enabled at any reachable marking.  A net whose choice places are all equal
  or unique is a *unique-choice Petri net* (UCPN).
* **Place degree** -- the saturation threshold used by the irrelevance
  criterion (Definition 4.4).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.petrinet.indexed import IndexedNet
from repro.petrinet.marking import Marking
from repro.petrinet.net import PetriNet


ECS = FrozenSet[str]


class ChoiceKind(enum.Enum):
    """Classification of a choice place."""

    NOT_A_CHOICE = "not-a-choice"
    EQUAL = "equal"
    UNIQUE = "unique"
    GENERAL = "general"


def compute_ecs_partition(net: PetriNet) -> List[ECS]:
    """Partition the transitions of ``net`` into equal conflict sets.

    Two non-source transitions are in equal conflict iff ``F(p, t1) == F(p, t2)``
    for every place ``p``.  Source transitions (empty preset) each form their
    own singleton ECS, per the special case in Section 2.
    """
    by_preset: Dict[Tuple[Tuple[str, int], ...], List[str]] = {}
    singletons: List[ECS] = []
    for name in net.transitions:
        preset = net.pre[name]
        if not preset:
            singletons.append(frozenset({name}))
            continue
        key = tuple(sorted(preset.items()))
        by_preset.setdefault(key, []).append(name)
    partition = [frozenset(group) for group in by_preset.values()]
    partition.extend(singletons)
    partition.sort(key=lambda ecs: sorted(ecs))
    return partition


def ecs_of_transition(net: PetriNet, transition: str, partition: Optional[Sequence[ECS]] = None) -> ECS:
    """The ECS containing ``transition``."""
    if partition is None:
        partition = compute_ecs_partition(net)
    for ecs in partition:
        if transition in ecs:
            return ecs
    raise KeyError(f"transition {transition!r} not in any ECS")


def enabled_ecss(net: PetriNet, marking: Marking, partition: Optional[Sequence[ECS]] = None) -> List[ECS]:
    """All ECSs enabled at ``marking``.

    An ECS is enabled iff any (equivalently every, for non-source sets) of its
    transitions is enabled.
    """
    if partition is None:
        partition = compute_ecs_partition(net)
    result = []
    for ecs in partition:
        representative = next(iter(ecs))
        if net.is_enabled(representative, marking):
            result.append(ecs)
    return result


def place_degree(net: PetriNet, place: str) -> int:
    """Degree of a place (Definition 4.4).

    ``max(max_in_weight + max_out_weight - 1, M0(p))`` where the weights are
    taken over input and output arcs of the place.  Places with no successors
    or no predecessors use 0 for the missing maximum.
    """
    in_weights = list(net.preset_of_place(place).values())
    out_weights = list(net.postset_of_place(place).values())
    max_in = max(in_weights) if in_weights else 0
    max_out = max(out_weights) if out_weights else 0
    structural = max_in + max_out - 1 if (in_weights or out_weights) else 0
    return max(structural, net.initial_tokens.get(place, 0))


def all_place_degrees(net: PetriNet) -> Dict[str, int]:
    """Degree of every place of the net."""
    return {place: place_degree(net, place) for place in net.places}


def classify_choice_place(
    net: PetriNet,
    place: str,
    partition: Optional[Sequence[ECS]] = None,
    reachable_markings: Optional[Iterable[Marking]] = None,
) -> ChoiceKind:
    """Classify a place as non-choice / equal / unique / general.

    The *unique* check is semantic ("no more than one successor transition can
    be enabled in any reachable marking").  When ``reachable_markings`` is not
    supplied we fall back to a structural sufficient condition: the successors
    of the place belong to distinct ECSs whose presets, restricted to non-port
    control-flow places of the same process, are disjoint singleton program
    counters -- which is the situation produced by the FlowC compiler when the
    same process reads one port at several program points.
    """
    successors = net.successors_of_place(place)
    if len(successors) <= 1:
        return ChoiceKind.NOT_A_CHOICE
    if partition is None:
        partition = compute_ecs_partition(net)
    ecss = {frozenset(ecs_of_transition(net, t, partition)) for t in successors}
    if len(ecss) == 1:
        return ChoiceKind.EQUAL
    if reachable_markings is not None:
        for marking in reachable_markings:
            enabled = [t for t in successors if net.is_enabled(t, marking)]
            if len(enabled) > 1:
                return ChoiceKind.GENERAL
        return ChoiceKind.UNIQUE
    # Structural sufficient condition for uniqueness: every successor also
    # consumes from some non-port place, and those controlling places are
    # pairwise different places of one sequential process (so at most one can
    # be marked at a time).
    controlling: List[str] = []
    processes = set()
    for transition in successors:
        others = [
            p
            for p in net.pre[transition]
            if p != place and not net.places[p].is_port
        ]
        if not others:
            return ChoiceKind.GENERAL
        controlling.extend(others)
        proc = net.transitions[transition].process
        processes.add(proc)
    if len(set(controlling)) == len(controlling) and len(processes) == 1 and None not in processes:
        return ChoiceKind.UNIQUE
    return ChoiceKind.GENERAL


def is_unique_choice_net(
    net: PetriNet,
    reachable_markings: Optional[Iterable[Marking]] = None,
) -> bool:
    """True if every choice place of the net is equal or unique (UCPN)."""
    markings = list(reachable_markings) if reachable_markings is not None else None
    partition = compute_ecs_partition(net)
    for place in net.choice_places():
        kind = classify_choice_place(net, place, partition, markings)
        if kind is ChoiceKind.GENERAL:
            return False
    return True


@dataclass
class StructuralAnalysis:
    """Bundle of the structural facts the scheduler consumes repeatedly.

    Building this once per net avoids recomputing the ECS partition and place
    degrees at every node of the scheduling tree.
    """

    net: PetriNet
    partition: List[ECS] = field(default_factory=list)
    ecs_by_transition: Dict[str, ECS] = field(default_factory=dict)
    degrees: Dict[str, int] = field(default_factory=dict)
    uncontrollable: FrozenSet[str] = frozenset()
    controllable: FrozenSet[str] = frozenset()
    # -- indexed-core view: ECS IDs are indices into ``partition`` ----------
    indexed_net: Optional[IndexedNet] = None
    ecs_id_by_tid: Tuple[int, ...] = ()
    source_ecs_ids: FrozenSet[int] = frozenset()

    @classmethod
    def of(cls, net: PetriNet) -> "StructuralAnalysis":
        """Compute the bundle for ``net``."""
        partition = compute_ecs_partition(net)
        by_transition: Dict[str, ECS] = {}
        for ecs in partition:
            for transition in ecs:
                by_transition[transition] = ecs
        indexed = net.indexed()
        ecs_id_by_tid = [0] * len(indexed.transition_names)
        source_ecs_ids = set()
        for ecs_id, ecs in enumerate(partition):
            for transition in ecs:
                ecs_id_by_tid[indexed.transition_index[transition]] = ecs_id
            if any(not net.pre[t] for t in ecs):
                source_ecs_ids.add(ecs_id)
        return cls(
            net=net,
            partition=partition,
            ecs_by_transition=by_transition,
            degrees=all_place_degrees(net),
            uncontrollable=frozenset(net.uncontrollable_sources()),
            controllable=frozenset(net.controllable_sources()),
            indexed_net=indexed,
            ecs_id_by_tid=tuple(ecs_id_by_tid),
            source_ecs_ids=frozenset(source_ecs_ids),
        )

    def ecs_of(self, transition: str) -> ECS:
        return self.ecs_by_transition[transition]

    def enabled_ecs_ids(self, enabled_tids: Iterable[int]) -> List[int]:
        """ECS IDs containing an enabled transition (ascending = partition order)."""
        by_tid = self.ecs_id_by_tid
        return sorted({by_tid[tid] for tid in enabled_tids})

    def enabled_ecss(self, marking: Marking) -> List[ECS]:
        """ECSs enabled at ``marking`` (deterministic order)."""
        indexed = self.indexed_net
        # net.indexed() rebuilds on structural version changes, so comparing
        # against it (not the raw _indexed field, which mutators leave in
        # place) is what actually detects a stale snapshot.
        if indexed is not None and indexed is self.net.indexed():
            vec = indexed.vec_of_marking(marking)
            return [
                self.partition[ecs_id]
                for ecs_id in self.enabled_ecs_ids(indexed.enabled_vec(vec))
            ]
        result = []
        for ecs in self.partition:
            representative = min(ecs)
            if self.net.is_enabled(representative, marking):
                result.append(ecs)
        return result
