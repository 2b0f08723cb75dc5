"""The scheduling algorithm: functions EP and EP_ECS (Section 5 of the paper).

The algorithm grows a rooted tree whose nodes carry reachable markings.  For
the source transition ``a`` it creates the root (initial marking) and its
child (marking after firing ``a``), then searches for an *entering point* of
the child that is the root itself.  ``EP(v, target)`` looks for an ancestor of
``target`` reachable from ``v`` no matter how the data-dependent choices
resolve; ``EP_ECS(E, v, target)`` does so for one enabled ECS by requiring an
entering point from every transition of the ECS.

Termination conditions (irrelevance criterion, place bounds, node budget)
prune the search space; Theorem 5.2 guarantees that a schedule is found if and
only if one exists in the pruned reachability tree.

After a successful search, post-processing retains only the chosen ECSs and
closes cycles by merging each leaf with the ancestor carrying the same
marking, yielding a :class:`~repro.scheduling.schedule.Schedule`.

The search walks one transition at a time, exactly as the paper states the
algorithm, and keeps every per-node test incremental along the DFS path:
each node's over-degree places derive from its parent's, the termination
condition is folded once
(:func:`~repro.scheduling.termination.fold_termination`) and decided on a
node or lookahead probe without rescanning its marking, and the
invariant-guided heuristic's promising vector lives in a
:class:`~repro.scheduling.heuristics.CycleTracker` updated on push/pop.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.petrinet.analysis import StructuralAnalysis
from repro.petrinet.indexed import IndexedNet, MarkingStore, MarkingVec
from repro.petrinet.marking import Marking
from repro.petrinet.net import PetriNet
from repro.scheduling.heuristics import (
    CycleTracker,
    ECSLookahead,
    ECSOrderingHeuristic,
    HeuristicContext,
    InvariantGuidedOrdering,
    make_heuristic,
)
from repro.scheduling.schedule import Schedule
from repro.scheduling.termination import (
    FoldedTermination,
    TerminationCondition,
    default_termination,
    fold_termination,
)
from repro.util import raised_recursion_limit

ECS = FrozenSet[str]

UNDEF = None  # sentinel for "no entering point"


class SchedulingFailure(Exception):
    """Raised by :func:`find_schedule` when ``raise_on_failure`` is set."""


@dataclass
class SchedulerOptions:
    """Configuration of the scheduling algorithm.

    Fields (all keyword-friendly, all defaulted):

    * ``use_invariant_heuristic`` -- order candidate ECSs by the
      T-invariant-guided heuristic of Section 5.5.2 instead of the plain
      tie-break ordering (usually a large tree-size win).  Under it the
      search first fails fast when no T-invariant fires the source
      transition (Section 5.5.2's non-schedulability test).
    * ``termination`` -- an explicit :class:`TerminationCondition`;
      ``None`` builds the default composite (irrelevance criterion +
      user place bounds + ``max_nodes`` budget).  Custom conditions make
      the search uncacheable by the daemon's record cache.
    * ``max_nodes`` -- hard budget on scheduling-tree nodes; exceeded
      searches fail with a budget reason instead of running forever.

    The rest is fixed behaviour, not configuration: every search builds a
    single-source schedule (Section 4.2: ECSs containing *other*
    uncontrollable sources are never fired), fires source ECSs only when
    nothing else yields an entering point (Section 4.4), and checks every
    schedule it returns with ``Schedule.validate`` (the five Section 4.1
    properties).

    Example::

        >>> options = SchedulerOptions(max_nodes=50_000)
        >>> (options.use_invariant_heuristic, options.termination, options.max_nodes)
        (True, None, 50000)
    """

    use_invariant_heuristic: bool = True
    termination: Optional[TerminationCondition] = None
    max_nodes: int = 200_000


@dataclass
class SearchCounters:
    """Profiling counters of one EP/EP_ECS search (exposed on the result)."""

    nodes_expanded: int = 0
    fires: int = 0
    enabled_scans: int = 0
    enabled_updates: int = 0
    interned_markings: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain ``{counter: value}`` dict (JSON-friendly, cache-stable)."""
        return asdict(self)

    def merge(self, other: "SearchCounters") -> None:
        """Accumulate another search's counters into this one."""
        self.nodes_expanded += other.nodes_expanded
        self.fires += other.fires
        self.enabled_scans += other.enabled_scans
        self.enabled_updates += other.enabled_updates
        self.interned_markings += other.interned_markings

    @classmethod
    def aggregate(cls, counters: "Iterable[SearchCounters]") -> "SearchCounters":
        """Sum of several searches' counters (e.g. over a system's sources)."""
        total = cls()
        for item in counters:
            total.merge(item)
        return total


@dataclass
class TreeNode:
    """A node of the scheduling tree.

    Markings are held as interned dense vectors of the indexed core; the
    facade :class:`Marking` is materialised lazily (``SchedulingTree.
    marking_of``) and cached, so only nodes that survive into the schedule or
    feed a heuristic pay the conversion.
    """

    index: int
    parent: Optional[int]
    depth: int
    vec: MarkingVec
    tid: Optional[int]  # transition ID fired on the edge from the parent
    transition: Optional[str]  # edge label from the parent
    total_tokens: int = 0
    children: List[int] = field(default_factory=list)
    ecs_choice: Optional[ECS] = None
    equal_ancestor: Optional[int] = None
    marking_cache: Optional[Marking] = None
    enabled: Optional[FrozenSet[int]] = None
    # places whose count exceeds their degree (ascending IDs); maintained
    # only while the tree tracks degrees (SchedulingTree.track_over_degree)
    over: Tuple[int, ...] = ()

    @property
    def marking(self) -> Marking:
        """Facade view; prefer ``SchedulingTree.marking_of`` (it caches)."""
        if self.marking_cache is None:
            raise AttributeError(
                "marking not materialised; use SchedulingTree.marking_of"
            )
        return self.marking_cache


class SchedulingTree:
    """The rooted tree grown by EP/EP_ECS, plus the current DFS path state.

    Runs entirely on the indexed core: nodes carry interned marking vectors,
    and each node's enabled transition set (and, when tracked, its
    over-degree places) is derived incrementally from its parent's, from
    the places the firing changed only.
    """

    def __init__(
        self,
        net: PetriNet,
        counters: Optional[SearchCounters] = None,
    ):
        self.net = net
        self.inet: IndexedNet = net.indexed()
        self.counters = counters or SearchCounters()
        self.store = MarkingStore()
        self.nodes: List[TreeNode] = []
        # state of the current DFS path (root .. current node)
        self._path: List[int] = []
        self._markings_on_path: Dict[MarkingVec, int] = {}
        # multiset of the path markings' total token counts -- the running
        # ancestor-comparison state of the incremental irrelevance check
        # (a candidate witness marking can only exist on the path if some
        # path marking carries its exact token total)
        self._path_total_counts: Dict[int, int] = {}
        # the invariant-guided heuristic's promising vector, kept along the
        # path (set by the search; None for other heuristics)
        self.cycle: Optional[CycleTracker] = None
        # place degrees the nodes' over-degree places are tracked against
        self._degrees: Optional[Tuple[int, ...]] = None

    def track_over_degree(self, degrees: Sequence[int]) -> None:
        """Give every node from now on its over-degree places (``TreeNode.over``).

        A child's set is derived from its parent's by re-checking only the
        places its firing changed.  Call before :meth:`add_root`.
        """
        assert not self.nodes
        self._degrees = tuple(degrees)

    def over_after(self, parent: TreeNode, tid: int, vec: MarkingVec) -> Tuple[int, ...]:
        """Over-degree places of ``vec``, the marking after firing ``tid`` at ``parent``."""
        degrees = self._degrees
        before = parent.vec
        over = parent.over
        for pid, _d in self.inet.delta[tid]:
            degree = degrees[pid]
            if (vec[pid] > degree) != (before[pid] > degree):
                break
        else:
            return over  # no changed place crossed its degree
        places = set(over)
        for pid, _d in self.inet.delta[tid]:
            if vec[pid] > degrees[pid]:
                places.add(pid)
            else:
                places.discard(pid)
        return tuple(sorted(places))

    # -- construction -----------------------------------------------------
    def add_root(self, vec: MarkingVec) -> int:
        assert not self.nodes
        vec = self.store.intern(vec)
        root = TreeNode(
            index=0,
            parent=None,
            depth=0,
            vec=vec,
            tid=None,
            transition=None,
            total_tokens=sum(vec),
        )
        if self._degrees is not None:
            degrees = self._degrees
            root.over = tuple(p for p, count in enumerate(vec) if count > degrees[p])
        self.nodes.append(root)
        return 0

    def add_child(self, parent: int, tid: int, vec: MarkingVec) -> int:
        index = len(self.nodes)
        vec = self.store.intern(vec)
        parent_node = self.nodes[parent]
        node = TreeNode(
            index=index,
            parent=parent,
            depth=parent_node.depth + 1,
            vec=vec,
            tid=tid,
            transition=self.inet.transition_names[tid],
            total_tokens=parent_node.total_tokens + self.inet.token_delta[tid],
        )
        if self._degrees is not None:
            node.over = self.over_after(parent_node, tid, vec)
        self.nodes.append(node)
        parent_node.children.append(index)
        return index

    def __len__(self) -> int:
        return len(self.nodes)

    # -- SchedulingTreeView protocol ---------------------------------------
    def vec_of(self, node: int) -> MarkingVec:
        return self.nodes[node].vec

    def depth_of(self, node: int) -> int:
        """Tree depth of ``node`` (root = 0); O(1) via the stored field.

        Termination conditions prefer this over counting
        :meth:`ancestors_of` -- same value, no O(depth) walk per query.
        """
        return self.nodes[node].depth

    def marking_of(self, node: int) -> Marking:
        tree_node = self.nodes[node]
        if tree_node.marking_cache is None:
            tree_node.marking_cache = self.inet.marking_of_vec(tree_node.vec)
        return tree_node.marking_cache

    def total_tokens_of(self, node: int) -> int:
        return self.nodes[node].total_tokens

    def ancestors_of(self, node: int):
        """Proper ancestors, nearest first (generator to avoid allocations)."""
        current = self.nodes[node].parent
        while current is not None:
            yield current
            current = self.nodes[current].parent

    # -- incremental enabled sets -------------------------------------------
    def enabled_of(self, node: int) -> FrozenSet[int]:
        """Enabled transition IDs at the node's marking.

        Computed incrementally from the nearest ancestor with a cached set
        (the root scans the net once); memoised per node.
        """
        chain: List[int] = []
        current = node
        tree_node = self.nodes[current]
        while tree_node.enabled is None and tree_node.parent is not None:
            chain.append(current)
            current = tree_node.parent
            tree_node = self.nodes[current]
        if tree_node.enabled is None:
            tree_node.enabled = frozenset(self.inet.enabled_vec(tree_node.vec))
            self.counters.enabled_scans += 1
        enabled = tree_node.enabled
        for index in reversed(chain):
            child = self.nodes[index]
            enabled = self.inet.enabled_after(enabled, child.tid, child.vec)
            self.counters.enabled_updates += 1
            child.enabled = enabled
        return enabled

    # -- DFS path bookkeeping -------------------------------------------------
    def push(self, node: int) -> None:
        tree_node = self.nodes[node]
        self._path.append(node)
        if tree_node.vec not in self._markings_on_path:
            self._markings_on_path[tree_node.vec] = node
        total = tree_node.total_tokens
        self._path_total_counts[total] = self._path_total_counts.get(total, 0) + 1
        if self.cycle is not None and tree_node.tid is not None:
            self.cycle.push(tree_node.tid)

    def pop(self, node: int) -> None:
        popped = self._path.pop()
        assert popped == node
        tree_node = self.nodes[node]
        if self._markings_on_path.get(tree_node.vec) == node:
            del self._markings_on_path[tree_node.vec]
        total = tree_node.total_tokens
        remaining = self._path_total_counts[total] - 1
        if remaining:
            self._path_total_counts[total] = remaining
        else:
            del self._path_total_counts[total]
        if self.cycle is not None and tree_node.tid is not None:
            self.cycle.pop(tree_node.tid)

    def path_probe_state(self, node: int):
        """Path state for ``IrrelevanceCriterion.holds``, or ``None``.

        Used where the search falls back to ``termination.holds`` (a
        condition that does not fold).  Returns ``(marking_index,
        total_counts)`` -- the vec -> node map and the token-total multiset
        of the current DFS path -- but only when ``node``'s proper ancestors
        are exactly the path markings: ``node`` is the top of the path (then
        the path also holds its own marking, which the checker never probes
        since witnesses differ from the candidate) or a fresh child of the
        top (a lookahead probe).  Any other node gets ``None`` and
        the caller's ancestor walk.
        """
        if not self._path:
            return None
        top = self._path[-1]
        if top == node or self.nodes[node].parent == top:
            return self._markings_on_path, self._path_total_counts
        return None

    def equal_marking_ancestor(self, node: int) -> Optional[int]:
        """Proper ancestor on the current path carrying the same marking."""
        vec = self.nodes[node].vec
        candidate = self._markings_on_path.get(vec)
        if candidate is None or candidate == node:
            return None
        return candidate

    def is_ancestor(self, ancestor: int, node: int) -> bool:
        """True if ``ancestor`` is on the path from the root to ``node``
        (assuming ``node`` lies on the current DFS path)."""
        if ancestor == node:
            return True
        depth = self.nodes[ancestor].depth
        if depth >= len(self._path):
            # node might not be on the path (defensive fallback: walk parents)
            current: Optional[int] = node
            while current is not None:
                if current == ancestor:
                    return True
                current = self.nodes[current].parent
            return False
        return self._path[depth] == ancestor and depth <= self.nodes[node].depth

    def path_firings(self) -> Mapping[str, int]:
        """Firing count per transition along the current DFS path (a fresh dict)."""
        names = self.inet.transition_names
        firings: Dict[str, int] = {}
        for node in self._path[1:]:
            name = names[self.nodes[node].tid]
            firings[name] = firings.get(name, 0) + 1
        return firings


@dataclass
class SchedulerResult:
    """Outcome of one scheduling attempt."""

    source_transition: str
    schedule: Optional[Schedule]
    tree_nodes: int
    elapsed_seconds: float
    failure_reason: Optional[str] = None
    counters: SearchCounters = field(default_factory=SearchCounters)
    # True when the result was rebuilt from a cached record
    # (serialize.result_from_record) rather than searched; tree_nodes and
    # counters then describe the original search.
    from_cache: bool = False

    @property
    def success(self) -> bool:
        """True when a schedule was found (``failure_reason`` is set otherwise)."""
        return self.schedule is not None


class _EPSearch:
    """One run of the EP/EP_ECS search for a given source transition."""

    def __init__(
        self,
        net: PetriNet,
        source: str,
        options: SchedulerOptions,
        analysis: Optional[StructuralAnalysis] = None,
        heuristic: Optional[ECSOrderingHeuristic] = None,
    ):
        self.net = net
        self.source = source
        self.options = options
        if analysis is None or analysis.indexed_net is not net.indexed():
            # A caller-supplied analysis built before a structural mutation
            # carries transition IDs of a dead snapshot; rebuild rather than
            # silently mixing ID spaces.
            analysis = StructuralAnalysis.of(net)
        self.analysis = analysis
        self.termination = options.termination or default_termination(
            net, analysis=self.analysis, max_nodes=options.max_nodes
        )
        self.heuristic = heuristic or make_heuristic(
            net, self.analysis, source, use_invariants=options.use_invariant_heuristic
        )
        self.counters = SearchCounters()
        self.tree = SchedulingTree(net, counters=self.counters)
        self.inet = self.tree.inet
        self.other_uncontrollable = {
            t for t in self.analysis.uncontrollable if t != source
        }
        # ECS IDs excluded under the single-source restriction, and source ECS
        # IDs (deferred by the Section 4.4 pruning rule).
        self._excluded_ecs_ids = frozenset(
            ecs_id
            for ecs_id, ecs in enumerate(self.analysis.partition)
            if ecs & self.other_uncontrollable
        )
        self._source_ecs_ids = self.analysis.source_ecs_ids
        self._source_ecss = frozenset(
            self.analysis.partition[ecs_id] for ecs_id in self._source_ecs_ids
        )
        # per-ECS-ID minimum token delta (tie-break: drain channels first)
        token_delta = self.inet.token_delta
        tindex = self.inet.transition_index
        self._ecs_token_delta = tuple(
            min(token_delta[tindex[t]] for t in ecs)
            for ecs in self.analysis.partition
        )
        # per-ECS sorted transition names and IDs (the firing order)
        self._sorted_ecs = tuple(
            tuple(sorted(ecs)) for ecs in self.analysis.partition
        )
        self._ecs_tids = tuple(
            tuple(tindex[t] for t in names) for names in self._sorted_ecs
        )
        self._ecs_id_of = {
            ecs: ecs_id for ecs_id, ecs in enumerate(self.analysis.partition)
        }
        if isinstance(self.heuristic, InvariantGuidedOrdering):
            self.tree.cycle = self.heuristic.cycle_tracker(self.inet.transition_index)
        fold = fold_termination(self.termination, self.inet)
        # the smallest NodeBudget leaf, folded or not (it names a failure)
        self._budget_leaf = fold.budget
        # the folded verdict; None falls back to termination.holds (a leaf
        # that does not fold)
        self._fold: Optional[FoldedTermination] = None
        self._incremental = None
        if not fold.extra:
            self._fold = fold
            if fold.irrelevance is not None:
                self._incremental = fold.irrelevance.incremental_for(self.inet)
                self.tree.track_over_degree(fold.irrelevance.degrees_vec(self.inet))

    def _exhausted_budget(self) -> Optional[int]:
        """The node budget the tree ran into, if any.

        ``max_nodes`` stops the tree at that many nodes; a
        :class:`~repro.scheduling.termination.NodeBudget` leaf prunes every
        node whose index reaches it, so the tree outgrew that budget.
        """
        size = len(self.tree)
        if self._budget_leaf is not None and size > self._budget_leaf:
            return self._budget_leaf
        if size >= self.options.max_nodes:
            return self.options.max_nodes
        return None

    def _fire(self, tid: int, vec) -> tuple:
        self.counters.fires += 1
        return self.inet.fire_vec(tid, vec)

    # -- ancestor ordering helpers -----------------------------------------
    def _closer_to_root(self, a: int, b: int) -> int:
        return a if self.tree.nodes[a].depth <= self.tree.nodes[b].depth else b

    # -- main entry -----------------------------------------------------------
    def run(self) -> SchedulerResult:
        start = time.monotonic()
        if isinstance(self.heuristic, InvariantGuidedOrdering):
            if not self.heuristic.source_is_coverable():
                return SchedulerResult(
                    source_transition=self.source,
                    schedule=None,
                    tree_nodes=0,
                    elapsed_seconds=time.monotonic() - start,
                    failure_reason=(
                        "no T-invariant fires the source transition; "
                        "no cyclic schedule can exist"
                    ),
                )
        initial = self.inet.initial_vec
        root = self.tree.add_root(initial)
        self.tree.nodes[root].ecs_choice = frozenset({self.source})
        source_tid = self.inet.transition_index[self.source]
        child_vec = self._fire(source_tid, initial)
        child = self.tree.add_child(root, source_tid, child_vec)

        # a deep schedule recurses once per tree level (fired transition)
        with raised_recursion_limit():
            self.tree.push(root)
            self.tree.push(child)
            try:
                entering_point = self._ep(child, root)
            finally:
                self.tree.pop(child)
                self.tree.pop(root)

        self.counters.interned_markings = len(self.tree.store)
        if entering_point != root:
            reason = "no entering point reaching the initial marking was found"
            budget = self._exhausted_budget()
            if budget is not None:
                reason = (
                    f"node budget of {budget} tree nodes exhausted before an entering "
                    "point reaching the initial marking was found; schedulability "
                    "is undecided"
                )
            return SchedulerResult(
                source_transition=self.source,
                schedule=None,
                tree_nodes=len(self.tree),
                elapsed_seconds=time.monotonic() - start,
                failure_reason=reason,
                counters=self.counters,
            )
        schedule = self._post_process(root)
        schedule.validate(self.analysis)
        return SchedulerResult(
            source_transition=self.source,
            schedule=schedule,
            tree_nodes=len(self.tree),
            elapsed_seconds=time.monotonic() - start,
            counters=self.counters,
        )

    # -- EP ----------------------------------------------------------------
    def _ep(self, v: int, target: int) -> Optional[int]:
        """EP at node ``v``: the entering point of its best candidate ECS.

        Tries every non-source ECS in heuristic order (early exit as soon as
        an entering point is an ancestor of ``target``, otherwise keep the
        shallowest), then -- only if none produced an entering point -- the
        deferred source ECSs (Section 4.4).
        """
        self.counters.nodes_expanded += 1
        if self._fold is not None:
            if self._node_holds(v):
                return UNDEF
        elif self.termination.holds(self.tree, v):
            return UNDEF
        equal = self.tree.equal_marking_ancestor(v)
        if equal is not None:
            self.tree.nodes[v].equal_ancestor = equal
            return equal

        nodes = self.tree.nodes
        best: Optional[int] = UNDEF
        for candidates in self._candidate_ecss(v):
            for ecs in candidates:
                entering_point = self._ep_ecs(ecs, v, target)
                if entering_point is UNDEF:
                    continue
                if self.tree.is_ancestor(entering_point, target):
                    nodes[v].ecs_choice = ecs
                    return entering_point
                if best is UNDEF or nodes[entering_point].depth < nodes[best].depth:
                    nodes[v].ecs_choice = ecs
                    best = entering_point
            if best is not UNDEF:
                return best
        return best

    def _candidate_ecss(self, v: int) -> Tuple[List[ECS], List[ECS]]:
        """The ordered candidate ECSs of ``v``: non-source, then source.

        The middle of EP: enabled ECSs (filtered by the single-source
        restriction), the one-step lookahead, the heuristic ordering and the
        Section 4.4 defer-sources split.  ``v`` must be the top of the
        current DFS path.
        """
        enabled_tids = self.tree.enabled_of(v)
        enabled_ids = self.analysis.enabled_ecs_ids(enabled_tids)
        if self._excluded_ecs_ids:
            enabled_ids = [
                ecs_id for ecs_id in enabled_ids
                if ecs_id not in self._excluded_ecs_ids
            ]
        if not enabled_ids:
            return [], []
        partition = self.analysis.partition
        enabled = [partition[ecs_id] for ecs_id in enabled_ids]

        if len(enabled) == 1:
            ordered = list(enabled)
        else:
            lookahead = self._lookahead(v, enabled_ids, enabled)
            context = HeuristicContext(
                depth=self.tree.nodes[v].depth,
                lookahead=lookahead,
                path_firings_supplier=self.tree.path_firings,
                cycle=self.tree.cycle,
            )
            ordered = self.heuristic.order(enabled, context)

        sources = self._source_ecss
        non_source = [ecs for ecs in ordered if ecs not in sources]
        source_ecss = [ecs for ecs in ordered if ecs in sources]
        return non_source, source_ecss

    def _lookahead(
        self, v: int, enabled_ids: Sequence[int], enabled: Sequence[ECS]
    ) -> Dict[ECS, ECSLookahead]:
        """The per-ECS one-step lookahead, one transition at a time.

        Fires each candidate of every enabled non-source ECS in sorted-name
        order until one closes a cycle on the path or hits the termination
        condition.  A probe that does not close a cycle is interned, exactly
        as the child it stands for would be; under a folded condition it is
        decided on that marking without a probe node.
        """
        tree = self.tree
        node = tree.nodes[v]
        vec = node.vec
        on_path = tree._markings_on_path
        folded = self._fold is not None
        lookahead: Dict[ECS, ECSLookahead] = {}
        for ecs_id, ecs in zip(enabled_ids, enabled):
            hits = False
            closes = False
            if ecs_id not in self._source_ecs_ids:
                for tid in self._ecs_tids[ecs_id]:
                    candidate = self._fire(tid, vec)
                    if on_path.get(candidate) is not None:
                        closes = True
                        break
                    if folded:
                        hits = self._probe_holds(node, tid, tree.store.intern(candidate))
                    else:
                        probe = tree.add_child(v, tid, candidate)
                        hits = self.termination.holds(tree, probe)
                        # remove the probe node again (it was only a lookahead)
                        tree.nodes.pop()
                        node.children.pop()
                    if hits:
                        break
            lookahead[ecs] = ECSLookahead(
                hits_termination=hits,
                closes_cycle=closes,
                token_delta=self._ecs_token_delta[ecs_id],
            )
        return lookahead

    def _node_holds(self, v: int) -> bool:
        """The folded verdict on node ``v``, the top of the DFS path."""
        node = self.tree.nodes[v]
        return self._folded_holds(v, node.depth, node.vec, node.total_tokens, node.over)

    def _probe_holds(self, node: TreeNode, tid: int, vec: MarkingVec) -> bool:
        """The folded verdict on the would-be child of ``node`` (the top of
        the DFS path) reached by firing ``tid``, whose marking is ``vec``.

        Equal to ``termination.holds`` on a probe node appended to the tree
        and popped again, which every probe's index shares.
        """
        over = ()
        if self._incremental is not None:
            over = self.tree.over_after(node, tid, vec)
        return self._folded_holds(
            len(self.tree.nodes),
            node.depth + 1,
            vec,
            node.total_tokens + self.inet.token_delta[tid],
            over,
        )

    def _folded_holds(
        self,
        index: int,
        depth: int,
        vec: MarkingVec,
        total: int,
        over: Tuple[int, ...],
    ) -> bool:
        """``termination.holds`` through the fold, for a node or a probe.

        The node has tree index ``index``, depth ``depth``, marking ``vec``
        with ``total`` tokens and over-degree places ``over``.  It is the
        top of the DFS path or a probe child of the top, so the path holds
        its ancestors (and at most its own marking, which Definition 4.5
        never counts as a witness).  A marking without an over-degree place
        is never irrelevant.
        """
        fold = self._fold
        if fold.budget is not None and index >= fold.budget:
            return True
        if fold.depth_cut is not None and depth > fold.depth_cut:
            return True
        for pid, bound in fold.bounds:
            if vec[pid] > bound:
                return True
        if not over:
            return False
        tree = self.tree
        verdict = self._incremental.check(
            vec, tree._markings_on_path, tree._path_total_counts, total, over
        )
        if verdict is None:
            # too many candidate witnesses: the exact walk over the path
            nodes = tree.nodes
            verdict = fold.irrelevance.witnessed_by(
                self.inet,
                vec,
                total,
                ((nodes[n].total_tokens, nodes[n].vec) for n in tree._path),
            )
        return verdict

    # -- EP_ECS ---------------------------------------------------------------
    def _ep_ecs(self, ecs: ECS, v: int, target: int) -> Optional[int]:
        entering_point: Optional[int] = UNDEF
        current_target = target
        vec = self.tree.vec_of(v)
        ecs_id = self._ecs_id_of[ecs]
        names = self._sorted_ecs[ecs_id]
        tids = self._ecs_tids[ecs_id]
        for index, transition in enumerate(names):
            if len(self.tree) >= self.options.max_nodes:
                return UNDEF
            tid = tids[index]
            child = self.tree.add_child(v, tid, self._fire(tid, vec))
            self.tree.push(child)
            try:
                child_point = self._ep(child, current_target)
            finally:
                self.tree.pop(child)
            if child_point is UNDEF:
                return UNDEF
            if not (
                self.tree.is_ancestor(child_point, v) and child_point != v
            ):
                return UNDEF
            if entering_point is UNDEF:
                entering_point = child_point
            else:
                entering_point = self._closer_to_root(entering_point, child_point)
            if self.tree.is_ancestor(entering_point, target):
                current_target = v
        return entering_point

    # -- post-processing ------------------------------------------------------
    def _post_process(self, root: int) -> Schedule:
        retained: Set[int] = set()
        order: List[int] = []
        stack = [root]
        while stack:
            current = stack.pop()
            if current in retained:
                continue
            retained.add(current)
            order.append(current)
            node = self.tree.nodes[current]
            if node.ecs_choice is None:
                continue
            for child_index in node.children:
                child = self.tree.nodes[child_index]
                if child.transition in node.ecs_choice and child_index not in retained:
                    stack.append(child_index)

        # merged leaves: retained nodes that close a cycle on an equal-marking ancestor
        merged: Dict[int, int] = {}
        for index in retained:
            node = self.tree.nodes[index]
            if node.ecs_choice is None and node.equal_ancestor is not None:
                merged[index] = node.equal_ancestor

        schedule = Schedule(net=self.net, source_transition=self.source)
        index_map: Dict[int, int] = {}
        for index in sorted(retained):
            if index in merged:
                continue
            schedule_node = schedule.add_node(self.tree.marking_of(index))
            index_map[index] = schedule_node.index

        def resolve(index: int) -> int:
            while index in merged:
                index = merged[index]
            return index_map[index]

        for index in sorted(retained):
            if index in merged:
                continue
            node = self.tree.nodes[index]
            if node.ecs_choice is None:
                continue
            for child_index in node.children:
                child = self.tree.nodes[child_index]
                if child_index not in retained:
                    continue
                if child.transition not in node.ecs_choice:
                    continue
                schedule.add_edge(index_map[index], child.transition, resolve(child_index))
        schedule.root = index_map[root]
        return schedule


def find_schedule(
    net: PetriNet,
    source_transition: str,
    *,
    options: Optional[SchedulerOptions] = None,
    analysis: Optional[StructuralAnalysis] = None,
    heuristic: Optional[ECSOrderingHeuristic] = None,
    raise_on_failure: bool = False,
) -> SchedulerResult:
    """Find a (single-source) schedule for ``source_transition``.

    ``net`` is the linked Petri net, ``source_transition`` the name of the
    uncontrollable source to react to, ``options`` a
    :class:`SchedulerOptions` (defaults apply), ``analysis`` an optional
    pre-built :class:`StructuralAnalysis` to share across several searches
    of the same net, and ``heuristic`` an optional ECS-ordering override.

    Returns a :class:`SchedulerResult`; when ``raise_on_failure`` is set a
    :class:`SchedulingFailure` is raised instead of returning an unsuccessful
    result.

    Example::

        >>> from repro.apps.paper_nets import figure_5
        >>> result = find_schedule(figure_5(), "a", raise_on_failure=True)
        >>> (result.success, len(result.schedule) > 0)
        (True, True)
    """
    options = options or SchedulerOptions()
    if source_transition not in net.transitions:
        raise KeyError(f"unknown transition {source_transition!r}")
    result = _EPSearch(
        net, source_transition, options, analysis=analysis, heuristic=heuristic
    ).run()
    if raise_on_failure and not result.success:
        raise SchedulingFailure(
            f"no schedule found for {source_transition!r}: {result.failure_reason}"
        )
    return result


def find_all_schedules(
    net: PetriNet,
    *,
    options: Optional[SchedulerOptions] = None,
    sources: Optional[Sequence[str]] = None,
    raise_on_failure: bool = False,
) -> Dict[str, SchedulerResult]:
    """Find one schedule per uncontrollable source transition.

    ``sources`` may restrict / extend the set of transitions scheduled (e.g.
    to include initially-enabled transitions per Property 4.3).  Every
    source is searched, in order, over one shared structural analysis.

    Example::

        >>> from repro.apps.workloads import random_multi_source_net
        >>> net = random_multi_source_net(2, 3, seed=1)
        >>> results = find_all_schedules(net)
        >>> [ (s, r.success) for s, r in results.items() ]
        [('r0.src', True), ('r1.src', True)]
    """
    options = options or SchedulerOptions()
    analysis = StructuralAnalysis.of(net)
    targets = list(sources) if sources is not None else net.uncontrollable_sources()
    return {
        source: find_schedule(
            net,
            source,
            options=options,
            analysis=analysis,
            raise_on_failure=raise_on_failure,
        )
        for source in targets
    }
