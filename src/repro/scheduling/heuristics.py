"""T-invariant guidance for the EP search's ECS ranking (Section 5.5).

The order in which the function EP explores the enabled ECSs at a node does
not change what is schedulable, but it strongly affects the number of nodes
created and the size of the resulting schedule.  The paper proposes:

* a *promising vector* derived from a base of T-invariants: prefer ECSs
  containing transitions that still need to fire to close a cycle back to an
  already-visited marking (Section 5.5.2);
* tie-breaks: avoid ECSs whose children immediately hit the termination
  condition, postpone uncontrollable source ECSs, and prefer single-transition
  ECSs.

``_EPSearch._candidate_ecss`` ranks a node's enabled ECSs by one key that
holds both.  This module supplies its invariant part: :class:`InvariantGuide`
chooses the candidate invariant, and :class:`CycleTracker` keeps its
promising vector along the DFS path.

The promising-vector machinery also yields a sufficient non-schedulability
condition: if the net has no T-invariant whose support contains the source
transition, no cyclic schedule exists.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.petrinet.analysis import StructuralAnalysis
from repro.petrinet.covering import Row, solve_binate_covering
from repro.petrinet.invariants import combine_invariants, invariant_basis
from repro.petrinet.net import PetriNet

ECS = FrozenSet[str]


class CycleTracker:
    """The promising vector of one search, kept incrementally along its path.

    :meth:`InvariantGuide.promising_vector` replays the candidate invariant
    cyclically: with ``q[t] = fired[t] // count[t]`` per support
    transition, ``t`` still has firings left in the current repetition
    exactly when ``q[t]`` equals the minimum quotient.  The tracker holds
    every quotient and the number of support transitions at each quotient,
    so a firing pushed onto or popped off the DFS path
    (``SchedulingTree.push`` / ``pop``) updates one quotient and the minimum
    in O(1), and an ECS is promising iff one of its support transitions
    sits at that minimum.  Python ints throughout, so invariant counts of
    any size stay exact.

    ECSs are named by their index in ``ecs_tids``, the transition IDs of
    each ECS (``_EPSearch`` passes one entry per ECS ID).
    """

    __slots__ = ("minimum", "_count", "_fired", "_quotient", "_at", "_support")

    def __init__(
        self,
        candidate: Mapping[str, int],
        transition_index: Mapping[str, int],
        ecs_tids: Sequence[Sequence[int]],
    ):
        size = len(transition_index)
        # per-tid invariant count (0 outside the support), firings, quotient
        self._count: List[int] = [0] * size
        for transition, count in candidate.items():
            self._count[transition_index[transition]] = count
        self._fired: List[int] = [0] * size
        self._quotient: List[int] = [0] * size
        # how many support transitions sit at each quotient
        self._at: Dict[int, int] = {0: len(candidate)} if candidate else {}
        self.minimum = 0
        # per-ECS support transition IDs
        count = self._count
        self._support: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(tid for tid in tids if count[tid]) for tids in ecs_tids
        )

    def _move(self, tid: int, fired: int) -> None:
        count = self._count[tid]
        self._fired[tid] = fired
        old = self._quotient[tid]
        new = fired // count
        if new == old:
            return
        self._quotient[tid] = new
        at = self._at
        left = at[old] - 1
        if left:
            at[old] = left
        else:
            del at[old]
        at[new] = at.get(new, 0) + 1
        if new < self.minimum:
            self.minimum = new
        elif old == self.minimum and not left:
            self.minimum = new

    def push(self, tid: int) -> None:
        """Account one more firing of ``tid`` on the path."""
        if self._count[tid]:
            self._move(tid, self._fired[tid] + 1)

    def pop(self, tid: int) -> None:
        """Undo the latest firing of ``tid`` on the path."""
        if self._count[tid]:
            self._move(tid, self._fired[tid] - 1)

    def promising(self, ecs_id: int) -> bool:
        """True when ``promising_vector(path firings)`` is positive on the ECS."""
        quotient = self._quotient
        minimum = self.minimum
        for tid in self._support[ecs_id]:
            if quotient[tid] == minimum:
                return True
        return False


class InvariantGuide:
    """The candidate T-invariant of one search (Section 5.5.2).

    The candidate is a combination of base invariants whose support covers
    the source transition and satisfies the necessary fireability condition
    of Theorem 5.3 (every pseudo-enabled ECS of a process appearing in the
    vector contributes a transition), chosen by the binate-covering
    formulation.  The search prefers ECSs on which its promising vector is
    positive.  The guide reads the net's T-invariant basis and its
    structural analysis from their memos on the net's snapshot
    (:func:`~repro.petrinet.invariants.invariant_basis`,
    :meth:`StructuralAnalysis.of`); nothing else can be handed to it.
    """

    def __init__(self, net: PetriNet, source_transition: str):
        self.net = net
        self.source_transition = source_transition
        self.base, self.base_complete = invariant_basis(net)
        #: the candidate invariant (empty when no base invariant fires the source)
        self.candidate: Dict[str, int] = self._select_candidate_invariant()

    # -- candidate invariant -------------------------------------------------
    def _select_candidate_invariant(self) -> Dict[str, int]:
        """A combination of base invariants covering the source transition and
        satisfying (heuristically) the Theorem 5.3 necessary condition."""
        mandatory = 0
        for column, invariant in enumerate(self.base):
            if self.source_transition in invariant:
                mandatory |= 1 << column
        if not mandatory:
            # no invariant fires the source: the net cannot cycle through it
            return {}
        solution = solve_binate_covering(
            self._covering_rows(), len(self.base), initial=mandatory
        )
        if solution is None or not solution & mandatory:
            solution = mandatory
        # sum in the string order of the columns (0, 1, 10, 2, ...), the order
        # of the names inv<i> the candidates were first chosen under, so each
        # candidate keeps its key order
        chosen = sorted((i for i in range(len(self.base)) if solution >> i & 1), key=str)
        return combine_invariants([self.base[i] for i in chosen])

    def _covering_rows(self) -> List[Row]:
        """The rows of the covering problem over the basis (column ``i`` is
        invariant ``i``): for each invariant that uses a process but no
        transition of some ECS of that process, the ECS's *helpers*, the
        invariants that do fire one of its transitions, as ``ones`` and the
        invariant as ``zeros``.

        The helpers depend on the ECS alone, so each ECS's mask is built once
        from the invariants' supports; an invariant fires a transition of the
        ECS exactly when it is one of the ECS's helpers.
        """
        analysis = StructuralAnalysis.of(self.net)
        process_of = {t: obj.process for t, obj in self.net.transitions.items()}
        ecs_by_process: Dict[Optional[str], List[ECS]] = {}
        for ecs in analysis.partition:
            proc = process_of.get(min(ecs))
            ecs_by_process.setdefault(proc, []).append(ecs)
        ecs_of = analysis.ecs_by_transition
        helpers_of: Dict[ECS, int] = {}
        for column, invariant in enumerate(self.base):
            for transition in invariant:
                ecs = ecs_of[transition]
                helpers_of[ecs] = helpers_of.get(ecs, 0) | 1 << column
        rows: List[Row] = []
        for column, invariant in enumerate(self.base):
            offender = 1 << column
            for proc in {process_of.get(t) for t in invariant}:
                if proc is None:
                    continue
                for ecs in ecs_by_process.get(proc, []):
                    helpers = helpers_of.get(ecs, 0)
                    if helpers and not helpers & offender:
                        rows.append((helpers, offender))
        return rows

    def source_is_coverable(self) -> bool:
        """False when no T-invariant fires the source transition, a sufficient
        condition for non-schedulability (Section 5.5.2).

        Only a complete basis can show that: every T-semiflow is a non-negative
        combination of minimal-support ones, so when none of those fires the
        source, none does.  From a basis cut at its row cap the answer is True
        and the search decides.
        """
        if not self.base_complete:
            return True
        return any(self.source_transition in invariant for invariant in self.base)

    # -- promising vector ------------------------------------------------------
    def promising_vector(self, path_firings: Mapping[str, int]) -> Dict[str, int]:
        """Remaining firings of the candidate invariant along the current path.

        The candidate invariant is replayed cyclically: the fired counts are
        reduced modulo the invariant so long schedules (several cycles of a
        process) keep receiving guidance.  The search reads the same answer
        from a :class:`CycleTracker`; this is its reference.
        """
        if not self.candidate:
            return {}
        remaining: Dict[str, int] = {}
        # number of complete invariant repetitions already fired
        repetitions = min(
            (path_firings.get(t, 0) // count for t, count in self.candidate.items()),
            default=0,
        )
        for transition, count in self.candidate.items():
            fired = path_firings.get(transition, 0) - repetitions * count
            left = count - fired
            if left > 0:
                remaining[transition] = left
        if not remaining:
            return dict(self.candidate)
        return remaining
