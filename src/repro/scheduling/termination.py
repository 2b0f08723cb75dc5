"""Termination conditions for the scheduling search (Section 4.4).

A termination condition is a predicate over nodes of the scheduling tree.
When it holds at a node, the algorithm stops exploring past that node (the
function EP returns UNDEF for it).  The paper discusses two conditions:

* **Pre-defined place bounds** (the approach of [13]): stop whenever any
  place exceeds a user-supplied bound.  Simple, but the bounds must be guessed
  a priori and no constant bound works for some schedulable nets (Figure 7).
* **The irrelevance criterion** (Definition 4.5): stop at a marking that
  covers an ancestor marking while only adding tokens to places that were
  already saturated (at or above their *degree*, Definition 4.4) in the
  ancestor.

Conditions are composable; a node budget provides a safety net for genuinely
unschedulable nets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Protocol, Sequence, Tuple

from repro.petrinet.analysis import StructuralAnalysis, all_place_degrees
from repro.petrinet.marking import Marking
from repro.petrinet.net import PetriNet


class SchedulingTreeView(Protocol):
    """The part of the scheduling tree a termination condition can see.

    Trees built on the indexed core may additionally expose ``vec_of(node)``
    (a dense tuple of token counts) and an ``inet`` attribute (the
    :class:`~repro.petrinet.indexed.IndexedNet`); conditions use those as a
    fast path and fall back to ``marking_of`` otherwise.
    """

    def marking_of(self, node: int) -> Marking:  # pragma: no cover - protocol
        ...

    def ancestors_of(self, node: int) -> Iterable[int]:  # pragma: no cover - protocol
        """Proper ancestors of ``node``, nearest first."""
        ...


class TerminationCondition:
    """Base class: callable on (tree, node) -> bool.

    **Extending** -- subclasses must implement :meth:`holds`.  A condition
    whose verdict depends only on the candidate marking, its tree depth and
    the markings on the path to it should *also* implement
    :meth:`frontier_mask` and set :attr:`supports_frontier_mask`; that pair
    is the public extension point that keeps the batched and kernel EP
    backends available (a condition without it forces the scalar backend,
    see :func:`split_frontier_conditions`).  The contract is pinned by
    ``tests/test_kernel.py`` and worked through in
    ``docs/user_guide.md`` ("Custom termination conditions").
    """

    name = "termination"

    #: **Public extension point** (with :meth:`frontier_mask`).  True for
    #: conditions whose verdict depends only on the candidate marking, its
    #: depth and the markings on the path to it -- the ones the batched and
    #: kernel EP backends can evaluate for a whole frontier at once via
    #: :meth:`frontier_mask`.  Index-dependent conditions
    #: (:class:`NodeBudget`) and conditions inspecting other tree state must
    #: leave this False, which restricts searches using them to the scalar
    #: backend.
    supports_frontier_mask = False

    def holds(self, tree: SchedulingTreeView, node: int) -> bool:
        """True when the search must stop exploring past ``node``."""
        raise NotImplementedError

    def frontier_mask(self, inet, ancestors, children, child_depth: int):
        """Batched verdicts for a whole frontier (boolean, one per child row).

        **Public extension point** (with :attr:`supports_frontier_mask`):
        user-defined conditions that implement this pair are evaluated
        frontier-at-a-time and keep the batched/kernel backends instead of
        silently forcing the scalar one.

        ``inet`` is the :class:`~repro.petrinet.indexed.IndexedNet`
        snapshot, ``ancestors`` the ``(depth, n_places)`` int64 matrix of
        markings on the path from the root to the expanded node (the node
        included, rows in any order), ``children`` the ``(n_children,
        n_places)`` candidate child markings, and ``child_depth`` the tree
        depth every child would have (expanded node's depth + 1).  Returns
        a boolean array of ``n_children`` verdicts and must agree exactly
        with :meth:`holds` evaluated on a child node hanging off the
        expanded node -- the backends' byte-identical-schedule contract
        rests on that equivalence.  Only called when
        :attr:`supports_frontier_mask` is True.
        """
        raise NotImplementedError(f"{self.name} has no batched form")

    def __call__(self, tree: SchedulingTreeView, node: int) -> bool:
        return self.holds(tree, node)

    def describe(self) -> str:
        """Short human-readable identity (used in failure reasons / logs)."""
        return self.name


@dataclass
class IrrelevanceCriterion(TerminationCondition):
    """The irrelevance criterion of Definition 4.5.

    A node's marking ``M`` is irrelevant w.r.t. the current tree if some
    ancestor marking ``M̂`` (on the path from the root) satisfies:

    a. ``M`` is reachable from ``M̂`` (true by construction for ancestors);
    b. no place has more tokens in ``M̂`` than in ``M``;
    c. every place where ``M`` has strictly more tokens than ``M̂`` is already
       saturated in ``M̂``: ``M̂(p) >= degree(p)``.

    We additionally require ``M != M̂``; the equal-marking case is handled by
    the scheduling algorithm itself (it closes a cycle there instead of
    pruning).
    """

    degrees: Dict[str, int]
    name: str = "irrelevance"
    supports_frontier_mask = True
    # cached dense degree vector, keyed by the indexed net it was built for
    _degrees_vec_for: Optional[object] = field(
        default=None, init=False, repr=False, compare=False
    )
    _degrees_vec: tuple = field(default=(), init=False, repr=False, compare=False)
    _degrees_np: Optional[object] = field(
        default=None, init=False, repr=False, compare=False
    )
    _incremental_for: Optional[object] = field(
        default=None, init=False, repr=False, compare=False
    )
    _incremental: Optional[object] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __getstate__(self) -> Dict[str, object]:
        # The dense-degree cache pins an IndexedNet (and through it the whole
        # net); strip it so shipping a custom termination condition to a
        # scheduling worker never drags a second copy of the net along.
        state = dict(self.__dict__)
        state["_degrees_vec_for"] = None
        state["_degrees_vec"] = ()
        state["_degrees_np"] = None
        state["_incremental_for"] = None
        state["_incremental"] = None
        return state

    @classmethod
    def for_net(cls, net: PetriNet) -> "IrrelevanceCriterion":
        """Build the criterion from the place degrees of ``net`` (Definition 4.4)."""
        return cls(degrees=all_place_degrees(net))

    @classmethod
    def for_analysis(cls, analysis: StructuralAnalysis) -> "IrrelevanceCriterion":
        """Reuse the degrees a :class:`StructuralAnalysis` already computed."""
        return cls(degrees=dict(analysis.degrees))

    def degrees_vec(self, inet) -> tuple:
        """Dense degree vector for a snapshot (cached per indexed net)."""
        if self._degrees_vec_for is not inet:
            self._degrees_vec = tuple(
                self.degrees.get(name, 0) for name in inet.place_names
            )
            self._degrees_np = None
            self._degrees_vec_for = inet
        return self._degrees_vec

    def incremental_for(self, inet):
        """The depth-independent checker for a snapshot (cached, shared).

        One :class:`~repro.petrinet.kernel.IncrementalIrrelevance` per
        (criterion, snapshot): the scalar ``holds`` fast path and the fused
        kernel backend share it, so its op counters describe the whole
        search (the depth-regression tests assert on them).
        """
        if self._incremental_for is not inet:
            from repro.petrinet.kernel import IncrementalIrrelevance

            self._incremental = IncrementalIrrelevance(self.degrees_vec(inet))
            self._incremental_for = inet
        return self._incremental

    def frontier_mask(self, inet, ancestors, children, child_depth: int):
        """Batched Definition 4.5 over a whole frontier (one broadcast)."""
        import numpy as np

        from repro.petrinet.batched import irrelevance_frontier_mask

        degrees = self.degrees_vec(inet)
        if self._degrees_np is None:
            self._degrees_np = np.asarray(degrees, dtype=np.int64)
        return irrelevance_frontier_mask(children, ancestors, self._degrees_np)

    def irrelevant_rows(self, inet, matrix, ancestor_vec):
        """Batched form over a marking matrix (one row per marking).

        Returns a boolean vector marking the rows irrelevant w.r.t.
        ``ancestor_vec``; the caller supplies rows known to be reachable
        from the ancestor (condition (a) of Definition 4.5).
        """
        from repro.petrinet.batched import irrelevance_mask

        return irrelevance_mask(matrix, ancestor_vec, self.degrees_vec(inet))

    def is_irrelevant(self, marking: Marking, ancestor: Marking) -> bool:
        """The Definition 4.5 test of ``marking`` against one ``ancestor``."""
        if marking == ancestor:
            return False
        # (b) the ancestor must be covered by the marking
        for place, count in ancestor.items():
            if marking[place] < count:
                return False
        # (c) places that grew must already have been saturated
        for place, count in marking.items():
            previous = ancestor[place]
            if count > previous and previous < self.degrees.get(place, 0):
                return False
        return True

    def _holds_vec(self, tree, inet, node: int) -> bool:
        """Dense fast path over marking vectors (no Marking construction).

        When the tree exposes its path marking index
        (``path_probe_state``), the verdict comes from the incremental
        checker -- O(over-degree places) hash probes instead of an O(depth)
        ancestor walk, bitwise identical (the witness set enumerated by
        :class:`~repro.petrinet.kernel.IncrementalIrrelevance` is exactly
        the set of path markings satisfying Definition 4.5).  The walk
        remains as the exact fallback for capped children and for trees
        without path state.
        """
        probe_state = getattr(tree, "path_probe_state", None)
        if probe_state is not None:
            state = probe_state(node)
            if state is not None:
                verdict = self.incremental_for(inet).check(
                    tree.vec_of(node),
                    state[0],
                    state[1],
                    tree.total_tokens_of(node),
                )
                if verdict is not None:
                    return verdict
        totals = tree.total_tokens_of
        return self.witnessed_by(
            inet,
            tree.vec_of(node),
            totals(node),
            ((totals(a), tree.vec_of(a)) for a in tree.ancestors_of(node)),
        )

    def witnessed_by(self, inet, vec, total: int, ancestors) -> bool:
        """Definition 4.5 of ``vec`` against ``(total, vec)`` ancestor pairs.

        The exact O(depth) walk behind the incremental checker: the verdict
        for children whose candidate count exceeds the enumeration cap, and
        for trees without path state.  ``total`` is the token total of
        ``vec``; ancestors holding more tokens cannot be covered.
        """
        degrees = self.degrees_vec(inet)
        for ancestor_total, avec in ancestors:
            if ancestor_total > total:
                continue
            if avec is vec or avec == vec:
                continue
            irrelevant = True
            for count, previous, degree in zip(vec, avec, degrees):
                if count < previous or (count > previous and previous < degree):
                    irrelevant = False
                    break
            if irrelevant:
                return True
        return False

    def holds(self, tree: SchedulingTreeView, node: int) -> bool:
        vec_of = getattr(tree, "vec_of", None)
        inet = getattr(tree, "inet", None)
        if vec_of is not None and inet is not None:
            return self._holds_vec(tree, inet, node)
        marking = tree.marking_of(node)
        # Cheap pre-filter: an ancestor can only be covered by the current
        # marking if it does not hold more tokens in total.
        totals = getattr(tree, "total_tokens_of", None)
        current_total = totals(node) if totals is not None else None
        for ancestor in tree.ancestors_of(node):
            if current_total is not None and totals(ancestor) > current_total:
                continue
            if self.is_irrelevant(marking, tree.marking_of(ancestor)):
                return True
        return False


@dataclass
class PlaceBoundCondition(TerminationCondition):
    """Stop when any place exceeds a pre-defined bound (the approach of [13]).

    ``default_bound`` applies to places not listed in ``bounds``; ``None``
    means those places are unconstrained.
    """

    bounds: Dict[str, int] = field(default_factory=dict)
    default_bound: Optional[int] = None
    name: str = "place-bounds"
    supports_frontier_mask = True
    _bounds_vec_for: Optional[object] = field(
        default=None, init=False, repr=False, compare=False
    )
    _bounds_vec: tuple = field(default=(), init=False, repr=False, compare=False)

    @classmethod
    def uniform(cls, net: PetriNet, bound: int) -> "PlaceBoundCondition":
        """The same pre-defined bound on every place (the [13] approach)."""
        return cls(bounds={place: bound for place in net.places})

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state["_bounds_vec_for"] = None
        state["_bounds_vec"] = ()
        return state

    def _bounded_pids(self, inet) -> tuple:
        if self._bounds_vec_for is not inet:
            entries = []
            for pid, name in enumerate(inet.place_names):
                bound = self.bounds.get(name, self.default_bound)
                if bound is not None:
                    entries.append((pid, bound))
            self._bounds_vec = tuple(entries)
            self._bounds_vec_for = inet
        return self._bounds_vec

    def violation_rows(self, inet, matrix):
        """Batched form: rows of a marking matrix exceeding some bound."""
        from repro.petrinet.batched import bound_violation_mask

        return bound_violation_mask(matrix, self._bounded_pids(inet))

    def frontier_mask(self, inet, ancestors, children, child_depth: int):
        return self.violation_rows(inet, children)

    def holds(self, tree: SchedulingTreeView, node: int) -> bool:
        vec_of = getattr(tree, "vec_of", None)
        inet = getattr(tree, "inet", None)
        if vec_of is not None and inet is not None:
            vec = vec_of(node)
            for pid, bound in self._bounded_pids(inet):
                if vec[pid] > bound:
                    return True
            return False
        marking = tree.marking_of(node)
        for place, count in marking.items():
            bound = self.bounds.get(place, self.default_bound)
            if bound is not None and count > bound:
                return True
        return False


@dataclass
class UserBoundCondition(TerminationCondition):
    """Respect the per-channel bounds declared in the specification.

    Channel places carrying a ``bound`` attribute (set by the linker from the
    netlist) must never exceed it; this models the blocking-write semantics of
    bounded channels during scheduling.
    """

    bounds: Dict[str, int] = field(default_factory=dict)
    name: str = "user-channel-bounds"
    supports_frontier_mask = True
    _bounds_vec_for: Optional[object] = field(
        default=None, init=False, repr=False, compare=False
    )
    _bounds_vec: tuple = field(default=(), init=False, repr=False, compare=False)

    @classmethod
    def for_net(cls, net: PetriNet) -> "UserBoundCondition":
        """Collect the per-place ``bound`` attributes users set on ``net``."""
        bounds = {
            place: obj.bound for place, obj in net.places.items() if obj.bound is not None
        }
        return cls(bounds=bounds)

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state["_bounds_vec_for"] = None
        state["_bounds_vec"] = ()
        return state

    def _bounded_pids(self, inet) -> tuple:
        if self._bounds_vec_for is not inet:
            self._bounds_vec = tuple(
                (inet.place_index[place], bound)
                for place, bound in self.bounds.items()
                if place in inet.place_index
            )
            self._bounds_vec_for = inet
        return self._bounds_vec

    def violation_rows(self, inet, matrix):
        """Batched form: rows of a marking matrix exceeding a channel bound."""
        from repro.petrinet.batched import bound_violation_mask

        return bound_violation_mask(matrix, self._bounded_pids(inet))

    def frontier_mask(self, inet, ancestors, children, child_depth: int):
        return self.violation_rows(inet, children)

    def holds(self, tree: SchedulingTreeView, node: int) -> bool:
        if not self.bounds:
            return False
        vec_of = getattr(tree, "vec_of", None)
        inet = getattr(tree, "inet", None)
        if vec_of is not None and inet is not None:
            vec = vec_of(node)
            for pid, bound in self._bounded_pids(inet):
                if vec[pid] > bound:
                    return True
            return False
        marking = tree.marking_of(node)
        for place, bound in self.bounds.items():
            if marking[place] > bound:
                return True
        return False


@dataclass
class NodeBudget(TerminationCondition):
    """Safety net: prune once the tree has grown past ``max_nodes`` nodes.

    This keeps the search finite on nets that are not schedulable under the
    other conditions.  The budget is expressed on the node index, which grows
    monotonically with tree construction.
    """

    max_nodes: int = 200_000
    name: str = "node-budget"

    def holds(self, tree: SchedulingTreeView, node: int) -> bool:
        return node >= self.max_nodes


@dataclass
class MaxDepthCondition(TerminationCondition):
    """Prune strictly beyond a maximum tree depth (mostly for tests).

    Boundary contract (pinned by ``tests/test_termination_boundaries.py``):
    a node at ``depth == max_depth`` is **kept** -- it may still close a
    cycle or host an entering point -- and only nodes at ``depth >
    max_depth`` are pruned.  Both backends implement the same comparison:
    the scalar path evaluates ``holds`` on the node (its depth equals its
    proper-ancestor count), the batched path evaluates
    :meth:`frontier_mask` with ``child_depth`` (the depth every child of
    the expanded node would have, i.e. parent depth + 1), so the two
    terminate on the identical node set.
    """

    max_depth: int
    name: str = "max-depth"
    supports_frontier_mask = True

    def holds(self, tree: SchedulingTreeView, node: int) -> bool:
        depth_of = getattr(tree, "depth_of", None)
        if depth_of is not None:
            return depth_of(node) > self.max_depth
        depth = sum(1 for _ in tree.ancestors_of(node))
        return depth > self.max_depth

    def frontier_mask(self, inet, ancestors, children, child_depth: int):
        import numpy as np

        return np.full(children.shape[0], child_depth > self.max_depth, dtype=bool)


@dataclass
class CompositeCondition(TerminationCondition):
    """Disjunction of several conditions."""

    conditions: List[TerminationCondition] = field(default_factory=list)
    name: str = "composite"

    def holds(self, tree: SchedulingTreeView, node: int) -> bool:
        return any(condition.holds(tree, node) for condition in self.conditions)

    def describe(self) -> str:
        return " | ".join(condition.describe() for condition in self.conditions)


@dataclass
class FrontierSplit:
    """A termination condition decomposed for the batched EP backend.

    ``maskable`` are the marking/path-dependent leaves (evaluated for a whole
    frontier via :meth:`TerminationCondition.frontier_mask`); ``budgets`` the
    node-index thresholds of the :class:`NodeBudget` leaves, which the search
    checks per node at visit time (a child's index is only known then).
    Together they are the whole condition: ``holds(tree, node)`` equals
    ``any(mask) or any(node >= b for b in budgets)``.
    """

    maskable: List[TerminationCondition] = field(default_factory=list)
    budgets: List[int] = field(default_factory=list)

    def budget_holds(self, node_index: int) -> bool:
        for budget in self.budgets:
            if node_index >= budget:
                return True
        return False


def split_frontier_conditions(
    condition: TerminationCondition,
) -> Optional[FrontierSplit]:
    """Decompose a condition tree for frontier-at-a-time evaluation.

    Returns ``None`` when some leaf is neither frontier-maskable nor a
    :class:`NodeBudget` -- e.g. an arbitrary user-supplied condition, whose
    ``holds`` may inspect tree state the batched backend does not
    materialise.  The scheduler then falls back to the scalar backend.
    User conditions that *do* implement the
    :meth:`TerminationCondition.frontier_mask` extension point decompose
    like the built-ins and keep the batched/kernel backends.
    """
    split = FrontierSplit()

    def visit(cond: TerminationCondition) -> bool:
        if isinstance(cond, CompositeCondition):
            return all(visit(sub) for sub in cond.conditions)
        if isinstance(cond, NodeBudget):
            split.budgets.append(cond.max_nodes)
            return True
        if cond.supports_frontier_mask:
            split.maskable.append(cond)
            return True
        return False

    return split if visit(condition) else None


@dataclass
class FoldedTermination:
    """A termination condition folded into the data EP checks per node.

    The built-in leaves become plain values for one snapshot, read by the
    scalar search (``_EPSearch``) and by
    :class:`~repro.petrinet.kernel.ExpansionKernel` alike:

    * ``budget`` -- the smallest :class:`NodeBudget` (prune node indices
      ``>= budget``);
    * ``depth_cut`` -- the smallest :class:`MaxDepthCondition` (prune depths
      ``> depth_cut``);
    * ``bounds`` -- ``(pid, bound)`` of every :class:`PlaceBoundCondition`
      and :class:`UserBoundCondition` (prune a count ``> bound``);
    * ``irrelevance`` -- the :class:`IrrelevanceCriterion`, decided from a
      node's over-degree places by its shared
      :meth:`~IrrelevanceCriterion.incremental_for` checker.

    ``extra`` keeps every other leaf: user conditions, subclasses of the
    mask-folded built-ins and any second irrelevance criterion.  The kernel
    evaluates those through :meth:`TerminationCondition.frontier_mask`; the
    scalar search folds only an ``extra``-free condition and otherwise
    falls back to ``termination.holds``.  The disjunction of every folded
    leaf and ``extra`` is exactly the original condition.
    """

    budget: Optional[int] = None
    depth_cut: Optional[int] = None
    bounds: Tuple[Tuple[int, int], ...] = ()
    irrelevance: Optional[IrrelevanceCriterion] = None
    extra: List[TerminationCondition] = field(default_factory=list)


def fold_termination(condition: TerminationCondition, inet) -> FoldedTermination:
    """Fold ``condition`` for the snapshot ``inet`` (see :class:`FoldedTermination`).

    Composites and node budgets decompose as in
    :func:`split_frontier_conditions`; the mask-folded built-ins match by
    exact type, so a subclass overriding ``holds`` keeps its own verdict.
    """
    fold = FoldedTermination()
    bounds: List[Tuple[int, int]] = []

    def visit(cond: TerminationCondition) -> None:
        kind = type(cond)
        if isinstance(cond, CompositeCondition):
            for sub in cond.conditions:
                visit(sub)
        elif isinstance(cond, NodeBudget):
            if fold.budget is None or cond.max_nodes < fold.budget:
                fold.budget = cond.max_nodes
        elif kind is MaxDepthCondition:
            if fold.depth_cut is None or cond.max_depth < fold.depth_cut:
                fold.depth_cut = cond.max_depth
        elif kind is PlaceBoundCondition or kind is UserBoundCondition:
            bounds.extend(cond._bounded_pids(inet))
        elif kind is IrrelevanceCriterion and fold.irrelevance is None:
            fold.irrelevance = cond
        else:
            fold.extra.append(cond)

    visit(condition)
    fold.bounds = tuple(bounds)
    return fold


def default_termination(
    net: PetriNet,
    *,
    analysis: Optional[StructuralAnalysis] = None,
    max_nodes: int = 200_000,
    extra: Sequence[TerminationCondition] = (),
) -> CompositeCondition:
    """The default condition used by the scheduler.

    Irrelevance criterion + user channel bounds + a node budget, which is the
    configuration the paper advocates (Section 4.4) made robust against
    unschedulable inputs.
    """
    conditions: List[TerminationCondition] = []
    if analysis is not None:
        conditions.append(IrrelevanceCriterion.for_analysis(analysis))
    else:
        conditions.append(IrrelevanceCriterion.for_net(net))
    user_bounds = UserBoundCondition.for_net(net)
    if user_bounds.bounds:
        conditions.append(user_bounds)
    conditions.append(NodeBudget(max_nodes=max_nodes))
    conditions.extend(extra)
    return CompositeCondition(conditions=conditions)
