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
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

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


def enabled_ecss(net: PetriNet, marking: Marking) -> List[ECS]:
    """All ECSs enabled at ``marking``, in partition order.

    An ECS is enabled iff any (equivalently every, for non-source sets) of its
    transitions is enabled.
    """
    result = []
    for ecs in StructuralAnalysis.of(net).partition:
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
    ecs_of = StructuralAnalysis.of(net).ecs_by_transition
    ecss = {ecs_of[t] for t in successors}
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
    for place in net.choice_places():
        kind = classify_choice_place(net, place, markings)
        if kind is ChoiceKind.GENERAL:
            return False
    return True


@dataclass
class StructuralAnalysis:
    """Bundle of the structural facts the scheduler consumes repeatedly: the
    ECS partition, the place degrees and the uncontrollable sources.

    :meth:`of` is the one way to get it: the bundle is memoised on the net's
    indexed snapshot, so every search, validation and replay of one net
    version shares one build, and a mutation that starts a new snapshot
    starts a new bundle.
    """

    net: PetriNet
    partition: List[ECS] = field(default_factory=list)
    ecs_by_transition: Dict[str, ECS] = field(default_factory=dict)
    degrees: Dict[str, int] = field(default_factory=dict)
    uncontrollable: FrozenSet[str] = frozenset()
    # -- indexed-core view: ECS IDs are indices into ``partition`` ----------
    ecs_id_by_tid: Tuple[int, ...] = ()
    source_ecs_ids: FrozenSet[int] = frozenset()

    @classmethod
    def of(cls, net: PetriNet) -> "StructuralAnalysis":
        """The bundle for ``net``, memoised on ``net.indexed()``.

        Built on first use and kept in the snapshot's ``analysis_cache``,
        beside the T-invariant basis.  Every sanctioned mutator
        (``add_place``, ``add_transition``, ``add_arc``,
        ``set_initial_tokens``) and :meth:`PetriNet.invalidate_caches` start
        a new snapshot, so the memo of the old one is never read again."""
        indexed = net.indexed()
        cache = indexed.analysis_cache
        analysis = cache.get("structural_analysis")
        if analysis is not None:
            return analysis
        partition = compute_ecs_partition(net)
        by_transition: Dict[str, ECS] = {}
        for ecs in partition:
            for transition in ecs:
                by_transition[transition] = ecs
        ecs_id_by_tid = [0] * len(indexed.transition_names)
        source_ecs_ids = set()
        for ecs_id, ecs in enumerate(partition):
            for transition in ecs:
                ecs_id_by_tid[indexed.transition_index[transition]] = ecs_id
            if any(not net.pre[t] for t in ecs):
                source_ecs_ids.add(ecs_id)
        analysis = cache["structural_analysis"] = cls(
            net=net,
            partition=partition,
            ecs_by_transition=by_transition,
            degrees=all_place_degrees(net),
            uncontrollable=frozenset(net.uncontrollable_sources()),
            ecs_id_by_tid=tuple(ecs_id_by_tid),
            source_ecs_ids=frozenset(source_ecs_ids),
        )
        return analysis

    def ecs_of(self, transition: str) -> ECS:
        return self.ecs_by_transition[transition]

    def enabled_ecs_ids(self, enabled_tids: Iterable[int]) -> List[int]:
        """ECS IDs containing an enabled transition (ascending = partition order)."""
        by_tid = self.ecs_id_by_tid
        return sorted({by_tid[tid] for tid in enabled_tids})
