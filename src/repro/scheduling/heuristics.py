"""ECS ordering heuristics for the scheduling algorithm (Section 5.5).

The order in which the function EP explores the enabled ECSs at a node does
not change what is schedulable, but it strongly affects the number of nodes
created and the size of the resulting schedule.  The paper proposes:

* a *promising vector* derived from a base of T-invariants: prefer ECSs
  containing transitions that still need to fire to close a cycle back to an
  already-visited marking (Section 5.5.2);
* tie-breaks: avoid ECSs whose children immediately hit the termination
  condition, postpone uncontrollable source ECSs, and prefer single-transition
  ECSs.

The promising-vector machinery also yields a sufficient non-schedulability
condition: if the net has no T-invariant whose support contains the source
transition, no cyclic schedule exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.petrinet.analysis import StructuralAnalysis
from repro.petrinet.covering import build_candidate_invariant_problem, solve_binate_covering
from repro.petrinet.invariants import combine_invariants, invariant_basis
from repro.petrinet.net import PetriNet

ECS = FrozenSet[str]


@dataclass(frozen=True)
class ECSLookahead:
    """One-step lookahead facts about firing an ECS at the current node."""

    hits_termination: bool = False
    closes_cycle: bool = False
    token_delta: int = 0


class CycleTracker:
    """The promising vector of one search, kept incrementally along its path.

    :meth:`InvariantGuidedOrdering.promising_vector` replays the candidate
    invariant cyclically: with ``q[t] = fired[t] // count[t]`` per support
    transition, ``t`` still has firings left in the current repetition
    exactly when ``q[t]`` equals the minimum quotient.  The tracker holds
    every quotient and the number of support transitions at each quotient,
    so a firing pushed onto or popped off the DFS path
    (``SchedulingTree.push`` / ``pop``) updates one quotient and the minimum
    in O(1), and an ECS is promising iff one of its support transitions
    sits at that minimum.  Python ints throughout, so invariant counts of
    any size stay exact.
    """

    __slots__ = (
        "candidate",
        "minimum",
        "_tindex",
        "_count",
        "_fired",
        "_quotient",
        "_at",
        "_support",
    )

    def __init__(self, candidate: Mapping[str, int], transition_index: Mapping[str, int]):
        self.candidate = candidate
        self._tindex = transition_index
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
        # per-ECS support transition IDs, cached on first query
        self._support: Dict[ECS, Tuple[int, ...]] = {}

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

    def promising(self, ecs: ECS) -> bool:
        """True when ``promising_vector(path_firings)`` is positive on ``ecs``."""
        tids = self._support.get(ecs)
        if tids is None:
            tids = self._support[ecs] = tuple(
                self._tindex[t] for t in ecs if t in self.candidate
            )
        quotient = self._quotient
        minimum = self.minimum
        for tid in tids:
            if quotient[tid] == minimum:
                return True
        return False


class HeuristicContext:
    """Information available to the ordering heuristic at one tree node.

    ``path_firings`` is materialised lazily: the built-in heuristics rank
    ECSs from the lookahead masks and the search's :class:`CycleTracker`
    alone, and building a firing-count dict per expanded node is pure
    overhead in the search hot loop.  The scheduler passes
    ``path_firings_supplier`` instead; a heuristic that does read
    ``context.path_firings`` pays the conversion only then (and custom
    callers may still pass the dict directly).
    """

    __slots__ = (
        "_path_firings",
        "_path_firings_supplier",
        "depth",
        "lookahead",
        "cycle",
    )

    def __init__(
        self,
        path_firings: Optional[Mapping[str, int]] = None,
        depth: int = 0,
        lookahead: Optional[Mapping[ECS, ECSLookahead]] = None,
        path_firings_supplier: Optional[Callable[[], Mapping[str, int]]] = None,
        cycle: Optional[CycleTracker] = None,
    ):
        if path_firings is None and path_firings_supplier is None:
            path_firings = {}
        self._path_firings = path_firings
        self._path_firings_supplier = path_firings_supplier
        self.depth = depth
        # optional per-ECS one-step lookahead computed by the scheduler
        self.lookahead: Mapping[ECS, ECSLookahead] = lookahead if lookahead is not None else {}
        # optional incremental promising-vector state of the current path;
        # the invariant-guided ordering reads it instead of path_firings
        self.cycle = cycle

    @property
    def path_firings(self) -> Mapping[str, int]:
        """Firing count per transition along the path to the node."""
        if self._path_firings is None:
            self._path_firings = self._path_firings_supplier()
        return self._path_firings

    def hits_termination(self, ecs: ECS) -> bool:
        info = self.lookahead.get(ecs)
        return info.hits_termination if info else False

    def closes_cycle(self, ecs: ECS) -> bool:
        info = self.lookahead.get(ecs)
        return info.closes_cycle if info else False

    def token_delta(self, ecs: ECS) -> int:
        info = self.lookahead.get(ecs)
        return info.token_delta if info else 0


class ECSOrderingHeuristic:
    """Base class: orders the enabled ECSs at a node (best first)."""

    def order(self, ecss: Sequence[ECS], context: HeuristicContext) -> List[ECS]:
        raise NotImplementedError


@dataclass
class NaiveOrdering(ECSOrderingHeuristic):
    """Deterministic name-based ordering (the ablation baseline)."""

    def order(self, ecss: Sequence[ECS], context: HeuristicContext) -> List[ECS]:
        return sorted(ecss, key=lambda ecs: sorted(ecs))


@dataclass
class TieBreakOrdering(ECSOrderingHeuristic):
    """The tie-break rules of Section 5.5.2 without invariant guidance.

    1. Non-source ECSs come before source ECSs ("fire a source transition only
       when the system cannot fire anything else").
    2. ECSs closing a cycle (a child marking equals an ancestor marking) come
       first -- they immediately provide an entering point.
    3. ECSs none of whose children hit the termination condition come next.
    4. ECSs that consume more tokens than they produce come before producers:
       draining channels first is what keeps the schedule (and the channel
       bounds) small.
    5. Single-transition ECSs come before multi-transition (choice) ECSs.
    """

    analysis: StructuralAnalysis
    _static: Dict[ECS, Tuple[bool, bool, List[str]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def static_key(self, ecs: ECS) -> Tuple[bool, bool, List[str]]:
        """The marking-independent part of an ECS's rank, cached per ECS:
        (is a source ECS, is a choice, sorted transition names)."""
        key = self._static.get(ecs)
        if key is None:
            key = self._static[ecs] = (
                bool(self.analysis.is_source_ecs(ecs)),
                len(ecs) > 1,
                sorted(ecs),
            )
        return key

    def order(self, ecss: Sequence[ECS], context: HeuristicContext) -> List[ECS]:
        def key(ecs: ECS) -> Tuple:
            is_source, is_choice, names = self.static_key(ecs)
            return (
                is_source,
                not context.closes_cycle(ecs),
                bool(context.hits_termination(ecs)),
                context.token_delta(ecs),
                is_choice,
                names,
            )

        return sorted(ecss, key=key)


class InvariantGuidedOrdering(ECSOrderingHeuristic):
    """T-invariant guided ordering (Section 5.5.2).

    The heuristic keeps a *promising vector*: a non-negative transition count
    vector derived from a T-invariant (or a sum of base invariants) minus the
    transitions already fired on the path.  ECSs containing a transition that
    appears in the promising vector are preferred; the tie-break rules of
    :class:`TieBreakOrdering` are applied within each group.

    The candidate invariant is chosen so that its support satisfies the
    necessary fireability condition of Theorem 5.3 (every pseudo-enabled ECS
    of a process appearing in the vector contributes a transition), using the
    binate-covering formulation.

    A caller-supplied ``invariants`` list guides the ordering but never proves
    non-schedulability: only a complete basis computed here can (see
    :meth:`source_is_coverable`).
    """

    def __init__(
        self,
        net: PetriNet,
        analysis: StructuralAnalysis,
        source_transition: str,
        *,
        invariants: Optional[List[Dict[str, int]]] = None,
    ):
        self.net = net
        self.analysis = analysis
        self.source_transition = source_transition
        if invariants is None:
            self.base, self.base_complete = invariant_basis(net)
        else:
            self.base, self.base_complete = invariants, False
        self.tie_break = TieBreakOrdering(analysis)
        self._candidate = self._select_candidate_invariant()

    # -- candidate invariant -------------------------------------------------
    def _select_candidate_invariant(self) -> Dict[str, int]:
        """A combination of base invariants covering the source transition and
        satisfying (heuristically) the Theorem 5.3 necessary condition."""
        if not self.base:
            return {}
        names = [f"inv{i}" for i in range(len(self.base))]
        by_name = dict(zip(names, self.base))
        rows = self._covering_rows(by_name)
        mandatory = {
            name for name, invariant in by_name.items() if self.source_transition in invariant
        }
        if not mandatory:
            # no invariant fires the source: the net cannot cycle through it
            return {}
        problem = build_candidate_invariant_problem(names, rows)
        solution = solve_binate_covering(problem, initial=set(mandatory))
        if solution is None or not (solution & mandatory):
            solution = mandatory
        return combine_invariants([by_name[name] for name in sorted(solution)])

    def _covering_rows(
        self, by_name: Mapping[str, Mapping[str, int]]
    ) -> List[Tuple[str, FrozenSet[str]]]:
        """The rows of the covering problem: for each invariant that uses a
        process but no transition of some ECS of that process, the ECS's
        *helpers*, the invariants that do fire one of its transitions.

        The helpers depend on the ECS alone, so each ECS's set is built once,
        in basis order, from the invariants' supports; an invariant fires a
        transition of the ECS exactly when it is one of the ECS's helpers.
        """
        process_of = {t: obj.process for t, obj in self.net.transitions.items()}
        ecs_by_process: Dict[Optional[str], List[ECS]] = {}
        for ecs in self.analysis.partition:
            proc = process_of.get(min(ecs))
            ecs_by_process.setdefault(proc, []).append(ecs)
        ecs_of = self.analysis.ecs_by_transition
        firing: Dict[ECS, List[str]] = {}
        for name, invariant in by_name.items():
            for transition in invariant:
                ecs = ecs_of.get(transition)
                if ecs is None:
                    continue  # a caller-supplied invariant may name anything
                helpers = firing.setdefault(ecs, [])
                if not helpers or helpers[-1] != name:
                    helpers.append(name)
        helpers_of = {ecs: frozenset(helpers) for ecs, helpers in firing.items()}
        rows: List[Tuple[str, FrozenSet[str]]] = []
        for name, invariant in by_name.items():
            processes_in_invariant = {process_of.get(t) for t in invariant}
            for proc in processes_in_invariant:
                if proc is None:
                    continue
                for ecs in ecs_by_process.get(proc, []):
                    helpers = helpers_of.get(ecs)
                    if helpers and name not in helpers:
                        rows.append((name, helpers))
        return rows

    @property
    def candidate_invariant(self) -> Dict[str, int]:
        return dict(self._candidate)

    def source_is_coverable(self) -> bool:
        """False when no T-invariant fires the source transition, a sufficient
        condition for non-schedulability (Section 5.5.2).

        Only a complete basis can show that: every T-semiflow is a non-negative
        combination of minimal-support ones, so when none of those fires the
        source, none does.  From an incomplete basis (cut at its row cap, or
        supplied by the caller) the answer is True and the search decides.
        """
        if not self.base_complete:
            return True
        return any(self.source_transition in invariant for invariant in self.base)

    # -- promising vector ------------------------------------------------------
    def promising_vector(self, path_firings: Mapping[str, int]) -> Dict[str, int]:
        """Remaining firings of the candidate invariant along the current path.

        The candidate invariant is replayed cyclically: the fired counts are
        reduced modulo the invariant so long schedules (several cycles of a
        process) keep receiving guidance.
        """
        if not self._candidate:
            return {}
        remaining: Dict[str, int] = {}
        # number of complete invariant repetitions already fired
        repetitions = min(
            (path_firings.get(t, 0) // count for t, count in self._candidate.items()),
            default=0,
        )
        for transition, count in self._candidate.items():
            fired = path_firings.get(transition, 0) - repetitions * count
            left = count - fired
            if left > 0:
                remaining[transition] = left
        if not remaining:
            return dict(self._candidate)
        return remaining

    def cycle_tracker(self, transition_index: Mapping[str, int]) -> CycleTracker:
        """A fresh :class:`CycleTracker` of the candidate invariant.

        One per search: the scheduler pushes and pops every path firing
        into it and hands it to :meth:`order` through
        ``HeuristicContext.cycle``.
        """
        return CycleTracker(self._candidate, transition_index)

    def _promising_predicate(self, context: HeuristicContext):
        """``ecs -> bool``: does the ECS contain a still-promising transition?

        A :class:`CycleTracker` of this candidate answers in O(|ecs|);
        without one (a caller-built context) the promising vector is
        rebuilt from ``context.path_firings``.  Both give the same answer:
        a support transition has firings left in the current repetition
        exactly when its quotient ``fired // count`` is the minimum one.
        """
        if not self._candidate:
            return lambda ecs: True
        tracker = context.cycle
        if tracker is not None and tracker.candidate is self._candidate:
            return tracker.promising
        vector = self.promising_vector(context.path_firings)
        return lambda ecs: any(vector.get(t, 0) > 0 for t in ecs)

    def order(self, ecss: Sequence[ECS], context: HeuristicContext) -> List[ECS]:
        is_promising = self._promising_predicate(context)
        static_key = self.tie_break.static_key

        def key(ecs: ECS) -> Tuple:
            is_source, is_choice, names = static_key(ecs)
            # "Fire a source transition only when the system cannot fire
            # anything else" dominates, then cycle-closing moves, then the
            # termination lookahead, the token-consumption preference and the
            # promising-vector preference.
            return (
                is_source,
                not context.closes_cycle(ecs),
                bool(context.hits_termination(ecs)),
                context.token_delta(ecs),
                not is_promising(ecs),
                is_choice,
                names,
            )

        return sorted(ecss, key=key)


def make_heuristic(
    net: PetriNet,
    analysis: StructuralAnalysis,
    source_transition: str,
    *,
    use_invariants: bool = True,
) -> ECSOrderingHeuristic:
    """Factory for the default heuristic configuration."""
    if use_invariants:
        return InvariantGuidedOrdering(net, analysis, source_transition)
    return TieBreakOrdering(analysis)
