"""The scheduling algorithm: functions EP and EP_ECS (Section 5 of the paper).

The algorithm grows a rooted tree whose nodes carry reachable markings.  For
the source transition ``a`` it creates the root (initial marking) and its
child (marking after firing ``a``), then searches for an *entering point* of
the child that is the root itself.  ``EP(v, target)`` looks for an ancestor of
``target`` reachable from ``v`` no matter how the data-dependent choices
resolve; ``EP_ECS(E, v, target)`` does so for one enabled ECS by requiring an
entering point from every transition of the ECS.

Section 4.4's pruning (the irrelevance criterion of Definition 4.5, or
pre-defined place bounds), the declared channel bounds and a node budget
stop the search past a node; Theorem 5.2 guarantees that a schedule is found
if and only if one exists in the pruned reachability tree.

After a successful search, post-processing retains only the chosen ECSs and
closes cycles by merging each leaf with the ancestor carrying the same
marking, yielding a :class:`~repro.scheduling.schedule.Schedule`.

The search walks one transition at a time, exactly as the paper states the
algorithm, and keeps every per-node test incremental along the DFS path:
each node's over-degree places derive from its parent's, one method
(``_EPSearch._prunes``) decides a node or a lookahead probe without
rescanning its marking, and the promising vector of the ECS ranking lives
in a :class:`~repro.scheduling.heuristics.CycleTracker` updated on
push/pop.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.petrinet.analysis import StructuralAnalysis
from repro.petrinet.indexed import IndexedNet, MarkingStore, MarkingVec
from repro.petrinet.net import PetriNet
from repro.scheduling.heuristics import CycleTracker, InvariantGuide
from repro.scheduling.schedule import Schedule, ScheduleNode
from repro.scheduling.termination import IncrementalIrrelevance, witnessed_by
from repro.util import raised_recursion_limit

ECS = FrozenSet[str]

UNDEF = None  # sentinel for "no entering point"


class SchedulingFailure(Exception):
    """Raised by :func:`find_schedule` when ``raise_on_failure`` is set."""


@dataclass
class SchedulerOptions:
    """Configuration of the scheduling algorithm.

    Fields (all keyword-friendly, all defaulted):

    * ``use_invariant_heuristic`` -- let the promising vector of a
      candidate T-invariant (Section 5.5.2) rank the candidate ECSs beside
      the tie-breaks, which rank them alone when it is off (usually a
      large tree-size win).  Under it the search first fails fast when no
      T-invariant fires the source transition (Section 5.5.2's
      non-schedulability test).
    * ``max_nodes`` -- hard budget on scheduling-tree nodes; exceeded
      searches fail with a budget reason instead of running forever.
    * ``place_bound`` -- how Section 4.4 prunes the search.  ``None``
      prunes by the irrelevance criterion (Definition 4.5); an integer
      prunes instead every marking with more tokens than that on some
      place (the pre-defined bounds of [13]).  A failed search that such a
      bound cut says so: schedulability is then undecided.

    The rest is fixed behaviour, not configuration: every search builds a
    single-source schedule (Section 4.2: ECSs containing *other*
    uncontrollable sources are never fired), never lets a channel place
    exceed the ``bound`` its specification declares, fires source ECSs
    only when nothing else yields an entering point (Section 4.4), and
    checks every schedule it returns with ``Schedule.validate`` (the five
    Section 4.1 properties).

    Example::

        >>> options = SchedulerOptions(max_nodes=50_000)
        >>> (options.use_invariant_heuristic, options.max_nodes, options.place_bound)
        (True, 50000, None)
    """

    use_invariant_heuristic: bool = True
    max_nodes: int = 200_000
    place_bound: Optional[int] = None


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
    nodes that survive into the schedule hand their vectors on, as they
    are, to its :class:`~repro.scheduling.schedule.ScheduleNode` objects.
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
    enabled: Optional[FrozenSet[int]] = None
    # places whose count exceeds their degree (ascending IDs); maintained
    # only while the tree tracks degrees (SchedulingTree.track_over_degree)
    over: Tuple[int, ...] = ()


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
        # the promising vector of the ECS ranking, kept along the path (set
        # by the search; None without a candidate T-invariant)
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

    # -- markings ------------------------------------------------------------
    def vec_of(self, node: int) -> MarkingVec:
        return self.nodes[node].vec

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

    def equal_marking_ancestor(self, node: int) -> Optional[int]:
        """Proper ancestor on the current path carrying the same marking."""
        vec = self.nodes[node].vec
        candidate = self._markings_on_path.get(vec)
        if candidate is None or candidate == node:
            return None
        return candidate

    def is_ancestor(self, ancestor: int, node: int) -> bool:
        """True if ``ancestor`` is on the path from the root to ``node``.

        ``node`` lies on the current DFS path, and so does every point EP
        or EP_ECS returns, so the path lookup decides.
        """
        if ancestor == node:
            return True
        depth = self.nodes[ancestor].depth
        return (
            depth < len(self._path)
            and self._path[depth] == ancestor
            and depth <= self.nodes[node].depth
        )


@dataclass
class SchedulerResult:
    """Outcome of one scheduling attempt."""

    source_transition: str
    schedule: Optional[Schedule]
    tree_nodes: int
    elapsed_seconds: float
    failure_reason: Optional[str] = None
    counters: SearchCounters = field(default_factory=SearchCounters)

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
    ):
        self.net = net
        self.source = source
        self.options = options
        self.analysis = StructuralAnalysis.of(net)
        self.counters = SearchCounters()
        self.tree = SchedulingTree(net, counters=self.counters)
        self.inet = self.tree.inet
        # ECS IDs excluded under the single-source restriction, and source ECS
        # IDs (deferred by the Section 4.4 pruning rule).
        others = self.analysis.uncontrollable - {source}
        self._excluded_ecs_ids = frozenset(
            ecs_id
            for ecs_id, ecs in enumerate(self.analysis.partition)
            if ecs & others
        )
        self._source_ecs_ids = self.analysis.source_ecs_ids
        # per-ECS-ID transition IDs in sorted-name order (the firing order)
        tindex = self.inet.transition_index
        self._ecs_tids = tuple(
            tuple(tindex[t] for t in sorted(ecs)) for ecs in self.analysis.partition
        )
        # the marking-independent terms of each ECS ID's rank (see
        # _candidate_ecss): is a source ECS, minimum token delta, is a choice
        token_delta = self.inet.token_delta
        self._static_rank = tuple(
            (
                ecs_id in self._source_ecs_ids,
                min(token_delta[tid] for tid in tids),
                len(tids) > 1,
            )
            for ecs_id, tids in enumerate(self._ecs_tids)
        )
        # Section 5.5.2: the candidate T-invariant, whose promising vector
        # the tracker keeps along the path
        self.guide: Optional[InvariantGuide] = None
        if options.use_invariant_heuristic:
            self.guide = InvariantGuide(net, source)
            if self.guide.candidate:
                self.tree.cycle = CycleTracker(self.guide.candidate, tindex, self._ecs_tids)
        # (place ID, bound) of every channel place whose bound the
        # specification declares
        places = net.places
        self._channel_bounds = tuple(
            (pid, places[name].bound)
            for pid, name in enumerate(self.inet.place_names)
            if places[name].bound is not None
        )
        # Section 4.4: the irrelevance criterion, or a pre-defined bound on
        # every place; whether that bound pruned anything names a failure,
        # as does whether max_nodes stopped a node from being searched
        self._bound_cut = False
        self._budget_cut = False
        self._degrees: Tuple[int, ...] = ()
        self._incremental: Optional[IncrementalIrrelevance] = None
        if options.place_bound is None:
            degrees = self.analysis.degrees
            self._degrees = tuple(degrees.get(name, 0) for name in self.inet.place_names)
            self._incremental = IncrementalIrrelevance(self._degrees)
            self.tree.track_over_degree(self._degrees)

    def _fire(self, tid: int, vec) -> tuple:
        self.counters.fires += 1
        return self.inet.fire_vec(tid, vec)

    # -- ancestor ordering helpers -----------------------------------------
    def _closer_to_root(self, a: int, b: int) -> int:
        return a if self.tree.nodes[a].depth <= self.tree.nodes[b].depth else b

    # -- main entry -----------------------------------------------------------
    def run(self) -> SchedulerResult:
        start = time.monotonic()
        if self.guide is not None and not self.guide.source_is_coverable():
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
        # the source child is added whatever the budget; below 2 it is
        # pruned unexpanded
        self._budget_cut = child >= self.options.max_nodes

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
            options = self.options
            reason = "no entering point reaching the initial marking was found"
            if self._budget_cut:
                reason = (
                    f"node budget of {options.max_nodes} tree nodes exhausted "
                    "before an entering point reaching the initial marking was "
                    "found; schedulability is undecided"
                )
            elif self._bound_cut:
                reason = (
                    f"pre-defined place bound ({options.place_bound} tokens per "
                    "place) pruned the search before an entering point reaching "
                    "the initial marking was found; schedulability is undecided"
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
        schedule.validate()
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

        Tries every non-source ECS in rank order (early exit as soon as an
        entering point is an ancestor of ``target``, otherwise keep the
        shallowest), then -- only if none produced an entering point -- the
        deferred source ECSs (Section 4.4).
        """
        self.counters.nodes_expanded += 1
        node = self.tree.nodes[v]
        if self._prunes(v, node.vec, node.total_tokens, node.over):
            return UNDEF
        equal = self.tree.equal_marking_ancestor(v)
        if equal is not None:
            node.equal_ancestor = equal
            return equal

        nodes = self.tree.nodes
        best: Optional[int] = UNDEF
        partition = self.analysis.partition
        for candidates in self._candidate_ecss(v):
            for ecs_id in candidates:
                entering_point = self._ep_ecs(ecs_id, v, target)
                if entering_point is UNDEF:
                    continue
                if self.tree.is_ancestor(entering_point, target):
                    node.ecs_choice = partition[ecs_id]
                    return entering_point
                if best is UNDEF or nodes[entering_point].depth < nodes[best].depth:
                    node.ecs_choice = partition[ecs_id]
                    best = entering_point
            if best is not UNDEF:
                return best
        return best

    def _candidate_ecss(self, v: int) -> Tuple[List[int], List[int]]:
        """The ranked candidate ECS IDs of ``v``: non-source, then source.

        The middle of EP: the enabled ECSs (filtered by the single-source
        restriction), ranked best first, split by the Section 4.4
        defer-sources rule.  One key ranks them (Section 5.5.2)::

            (is a source ECS, closes no cycle, a probe is pruned,
             minimum token delta, is not promising, is a choice, ECS ID)

        Sources come last ("fire a source transition only when the system
        cannot fire anything else"); the one-step lookahead
        (:meth:`_lookahead`) decides the next two terms; consumers come
        before producers (draining channels keeps the schedule small); the
        promising term is constant without a candidate T-invariant; and the
        ECS ID, in the partition's sorted-name order, breaks the remaining
        ties.  A node with one candidate fires no probe.  ``v`` must be the
        top of the current DFS path.
        """
        tree = self.tree
        enabled_ids = self.analysis.enabled_ecs_ids(tree.enabled_of(v))
        if self._excluded_ecs_ids:
            enabled_ids = [
                ecs_id for ecs_id in enabled_ids
                if ecs_id not in self._excluded_ecs_ids
            ]
        if len(enabled_ids) > 1:
            node = tree.nodes[v]
            cycle = tree.cycle
            rank = {}
            for ecs_id in enabled_ids:
                is_source, token_delta, is_choice = self._static_rank[ecs_id]
                closes, pruned = (False, False) if is_source else self._lookahead(node, ecs_id)
                rank[ecs_id] = (
                    is_source,
                    not closes,
                    pruned,
                    token_delta,
                    cycle is not None and not cycle.promising(ecs_id),
                    is_choice,
                    ecs_id,
                )
            enabled_ids.sort(key=rank.__getitem__)
        sources = self._source_ecs_ids
        return (
            [ecs_id for ecs_id in enabled_ids if ecs_id not in sources],
            [ecs_id for ecs_id in enabled_ids if ecs_id in sources],
        )

    def _lookahead(self, node: TreeNode, ecs_id: int) -> Tuple[bool, bool]:
        """``(closes a cycle, is pruned)`` of one non-source ECS at ``node``.

        Fires the ECS's transitions one at a time, in firing order, until
        one closes a cycle on the path or is pruned.  A probe that does not
        close a cycle is interned, exactly as the child it stands for would
        be, and decided on that marking without a probe node: it takes the
        tree index its child would get.
        """
        tree = self.tree
        vec = node.vec
        for tid in self._ecs_tids[ecs_id]:
            probe = self._fire(tid, vec)
            if tree._markings_on_path.get(probe) is not None:
                return True, False
            probe = tree.store.intern(probe)
            over = ()
            if self._incremental is not None:
                over = tree.over_after(node, tid, probe)
            total = node.total_tokens + self.inet.token_delta[tid]
            if self._prunes(len(tree.nodes), probe, total, over):
                return False, True
        return False, False

    def _prunes(
        self, index: int, vec: MarkingVec, total: int, over: Tuple[int, ...]
    ) -> bool:
        """Whether the search stops at a node or at a lookahead probe.

        The node has tree index ``index``, marking ``vec`` with ``total``
        tokens and over-degree places ``over``; it is the top of the DFS
        path or a probe child of the top.  The checks run in the order
        budget (an index ``>= max_nodes``), bounds (the declared channel
        bounds, then ``place_bound`` on every place) and, when no
        ``place_bound`` is set, the irrelevance criterion.
        """
        options = self.options
        if index >= options.max_nodes:
            return True
        for pid, bound in self._channel_bounds:
            if vec[pid] > bound:
                return True
        if options.place_bound is None:
            return self._irrelevant(vec, total, over)
        if max(vec, default=0) > options.place_bound:
            self._bound_cut = True
            return True
        return False

    def _irrelevant(self, vec: MarkingVec, total: int, over: Tuple[int, ...]) -> bool:
        """Definition 4.5 for a node or probe of :meth:`_prunes`.

        The path holds the node's ancestors (and at most its own marking,
        which Definition 4.5 never counts as a witness).  A marking without
        an over-degree place is never irrelevant; the others go to the
        incremental checker, and to the exact walk over the path when their
        candidate witnesses exceed its cap.
        """
        if not over:
            return False
        tree = self.tree
        verdict = self._incremental.check(
            vec, tree._markings_on_path, tree._path_total_counts, total, over
        )
        if verdict is None:
            nodes = tree.nodes
            verdict = witnessed_by(
                self._degrees,
                vec,
                total,
                ((nodes[n].total_tokens, nodes[n].vec) for n in tree._path),
            )
        return verdict

    # -- EP_ECS ---------------------------------------------------------------
    def _ep_ecs(self, ecs_id: int, v: int, target: int) -> Optional[int]:
        entering_point: Optional[int] = UNDEF
        current_target = target
        vec = self.tree.vec_of(v)
        for tid in self._ecs_tids[ecs_id]:
            if len(self.tree) >= self.options.max_nodes:
                self._budget_cut = True
                return UNDEF
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
        """The schedule of the retained tree: the chosen ECSs' children, with
        each cycle-closing leaf merged into its equal-marking ancestor.  Its
        nodes carry the tree's interned vectors as they are."""
        tree_nodes = self.tree.nodes
        retained: Set[int] = set()
        stack = [root]
        while stack:
            current = stack.pop()
            if current in retained:
                continue
            retained.add(current)
            node = tree_nodes[current]
            if node.ecs_choice is None:
                continue
            for child_index in node.children:
                child = tree_nodes[child_index]
                if child.transition in node.ecs_choice and child_index not in retained:
                    stack.append(child_index)

        # merged leaves: retained nodes that close a cycle on an equal-marking ancestor
        merged: Dict[int, int] = {}
        for index in retained:
            node = tree_nodes[index]
            if node.ecs_choice is None and node.equal_ancestor is not None:
                merged[index] = node.equal_ancestor

        schedule = Schedule(net=self.net, source_transition=self.source)
        kept = [index for index in sorted(retained) if index not in merged]
        index_map: Dict[int, int] = {}
        for index in kept:
            index_map[index] = len(schedule.nodes)
            schedule.nodes.append(
                ScheduleNode(len(schedule.nodes), vec=tree_nodes[index].vec, snapshot=self.inet)
            )

        def resolve(index: int) -> int:
            while index in merged:
                index = merged[index]
            return index_map[index]

        for index in kept:
            node = tree_nodes[index]
            if node.ecs_choice is None:
                continue
            for child_index in node.children:
                child = tree_nodes[child_index]
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
    raise_on_failure: bool = False,
) -> SchedulerResult:
    """Find a (single-source) schedule for ``source_transition``.

    ``net`` is the linked Petri net, ``source_transition`` the name of the
    uncontrollable source to react to and ``options`` a
    :class:`SchedulerOptions` (defaults apply).  ``analysis`` is accepted
    for callers that pass one and is not read: the search reads
    :meth:`StructuralAnalysis.of`, memoised on the net's current snapshot,
    so searches of one net version share one analysis and none ever reads
    an analysis of an older version.  At every node the search ranks the
    enabled ECSs by one key: the tie-breaks of Section 5.5.2 plus, under
    ``options.use_invariant_heuristic``, the promising vector of a
    candidate T-invariant.

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
    result = _EPSearch(net, source_transition, options).run()
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
    source is searched, in order, by :func:`find_schedule`; the searches
    share the structural analysis and the T-invariant basis memoised on the
    net's snapshot.

    Example::

        >>> from repro.apps.workloads import random_multi_source_net
        >>> net = random_multi_source_net(2, 3, seed=1)
        >>> results = find_all_schedules(net)
        >>> [ (s, r.success) for s, r in results.items() ]
        [('r0.src', True), ('r1.src', True)]
    """
    options = options or SchedulerOptions()
    targets = list(sources) if sources is not None else net.uncontrollable_sources()
    return {
        source: find_schedule(net, source, options=options, raise_on_failure=raise_on_failure)
        for source in targets
    }
