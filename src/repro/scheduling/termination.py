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

Definition 4.5 lives here in full: :class:`IrrelevanceCriterion` states it
and walks the path exactly, and :class:`IncrementalIrrelevance` decides it
from a node's over-degree places with hash probes into the path marking
index, so the EP search pays no O(depth) walk per node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Dict, Iterable, List, Optional, Protocol, Sequence, Tuple

from repro.petrinet.analysis import StructuralAnalysis, all_place_degrees
from repro.petrinet.indexed import IndexedNet, MarkingVec
from repro.petrinet.marking import Marking
from repro.petrinet.net import PetriNet


class SchedulingTreeView(Protocol):
    """The part of the scheduling tree a termination condition can read.

    :class:`~repro.scheduling.ep.SchedulingTree` is the implementation.
    The built-in conditions read the indexed view: ``inet`` (the
    :class:`~repro.petrinet.indexed.IndexedNet` whose place IDs index
    ``vec_of``), the per-node accessors and, for the irrelevance
    criterion, ``path_probe_state``.  ``marking_of`` is there for custom
    conditions that want a facade :class:`Marking`.
    """

    inet: IndexedNet

    def vec_of(self, node: int) -> MarkingVec:  # pragma: no cover - protocol
        """Token counts of ``node``'s marking, indexed by ``inet`` place ID."""
        ...

    def depth_of(self, node: int) -> int:  # pragma: no cover - protocol
        """Tree depth of ``node`` (the root has depth 0)."""
        ...

    def total_tokens_of(self, node: int) -> int:  # pragma: no cover - protocol
        """Total token count of ``node``'s marking."""
        ...

    def ancestors_of(self, node: int) -> Iterable[int]:  # pragma: no cover - protocol
        """Proper ancestors of ``node``, nearest first."""
        ...

    def path_probe_state(
        self, node: int
    ) -> Optional[Tuple[Dict[MarkingVec, int], Dict[int, int]]]:  # pragma: no cover - protocol
        """The DFS path's marking index and token-total multiset when
        ``node``'s proper ancestors are exactly the path, else ``None``."""
        ...

    def marking_of(self, node: int) -> Marking:  # pragma: no cover - protocol
        """Facade marking of ``node``."""
        ...


class TerminationCondition:
    """Base class: callable on (tree, node) -> bool.

    **Extending** -- subclasses implement :meth:`holds`, which is the whole
    contract.  The EP search folds the built-in leaves into plain per-node
    checks (:func:`fold_termination`); any other leaf -- a user condition,
    or a subclass of a built-in -- makes the search ask ``holds`` on every
    node and lookahead probe instead.  Worked through in
    ``docs/user_guide.md`` ("Custom termination conditions").
    """

    name = "termination"

    def holds(self, tree: SchedulingTreeView, node: int) -> bool:
        """True when the search must stop exploring past ``node``."""
        raise NotImplementedError

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
    # cached dense degree vector, keyed by the indexed net it was built for
    _degrees_vec_for: Optional[object] = field(
        default=None, init=False, repr=False, compare=False
    )
    _degrees_vec: tuple = field(default=(), init=False, repr=False, compare=False)
    _incremental_for: Optional[object] = field(
        default=None, init=False, repr=False, compare=False
    )
    _incremental: Optional["IncrementalIrrelevance"] = field(
        default=None, init=False, repr=False, compare=False
    )

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
            self._degrees_vec_for = inet
        return self._degrees_vec

    def incremental_for(self, inet) -> "IncrementalIrrelevance":
        """The depth-independent checker for a snapshot (cached, shared).

        One :class:`IncrementalIrrelevance` per (criterion, snapshot): the
        folded EP search and the ``holds`` fast path share it, so its op
        counters describe the whole search (the depth-regression tests
        assert on them).
        """
        if self._incremental_for is not inet:
            self._incremental = IncrementalIrrelevance(self.degrees_vec(inet))
            self._incremental_for = inet
        return self._incremental

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

    def holds(self, tree: SchedulingTreeView, node: int) -> bool:
        """Definition 4.5 on marking vectors (no Marking construction).

        When ``node``'s proper ancestors are the current DFS path
        (``path_probe_state``), the verdict comes from the incremental
        checker -- O(over-degree places) hash probes instead of an O(depth)
        ancestor walk, with the same verdict (the witness set enumerated by
        :class:`IncrementalIrrelevance` is exactly the set of path markings
        satisfying Definition 4.5).  The walk remains as the exact fallback
        for capped children and for nodes off the path.
        """
        inet = tree.inet
        state = tree.path_probe_state(node)
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
        for nodes off the DFS path.  ``total`` is the token total of
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


#: Maximum number of candidate witness markings
#: :class:`IncrementalIrrelevance` enumerates per node before the caller
#: falls back to the exact walk over the path
#: (:meth:`IrrelevanceCriterion.witnessed_by`).  The cap bounds per-node
#: work by a constant; in practice (saturated channels a token or two over
#: degree) counts are single-digit.
IRRELEVANCE_ENUM_CAP = 64


class IncrementalIrrelevance:
    """Depth-independent Definition 4.5 verdicts via the path marking index.

    Definition 4.5 says a marking ``C`` is irrelevant w.r.t. a path ancestor
    ``A`` iff ``A != C``, ``A <= C`` component-wise, and every place where
    ``C`` grew was already saturated in ``A`` (``A[p] >= degree[p]``).  Per
    place that pins ``A[p]`` to::

        A[p] == C[p]                      when C[p] <= degree[p]
        A[p] in [degree[p], C[p]]         when C[p] >  degree[p]

    so the only markings that could witness irrelevance are the (usually
    zero or a handful of) combinations over the over-degree places.
    Instead of comparing ``C`` against every ancestor, ``check`` enumerates
    those candidates and hash-probes them against the path's marking index,
    which :class:`~repro.scheduling.ep.SchedulingTree` maintains on
    push/pop.  A marking with no over-degree place is never irrelevant.

    One instance accumulates op-count statistics across a search; the
    depth-regression tests assert bounds on these counters instead of wall
    clock.  ``check`` returns ``True`` / ``False``, or ``None`` when the
    candidate-combination count exceeds the enumeration cap and the caller
    must fall back to the exact walk.
    """

    __slots__ = (
        "degrees",
        "cap",
        "children_checked",
        "decided_by_degree_filter",
        "candidates_probed",
        "capped_children",
    )

    def __init__(self, degrees: Sequence[int], cap: int = IRRELEVANCE_ENUM_CAP):
        self.degrees = tuple(degrees)
        self.cap = cap
        self.children_checked = 0
        self.decided_by_degree_filter = 0
        self.candidates_probed = 0
        self.capped_children = 0

    def stats(self) -> Dict[str, int]:
        """Op counters accumulated so far (plain dict, test-friendly)."""
        return {
            "children_checked": self.children_checked,
            "decided_by_degree_filter": self.decided_by_degree_filter,
            "candidates_probed": self.candidates_probed,
            "capped_children": self.capped_children,
        }

    def check(
        self,
        vec: Sequence[int],
        path_index: Dict[Tuple[int, ...], int],
        total_counts: Dict[int, int],
        total: int,
        over: Optional[Sequence[int]] = None,
    ) -> Optional[bool]:
        """Is ``vec`` irrelevant w.r.t. some marking in ``path_index``?

        ``path_index`` maps each marking on the current DFS path to a node,
        ``total_counts`` is the multiset of their total token counts (both
        maintained by ``SchedulingTree`` push/pop), ``total`` the token
        total of ``vec``.  ``over`` lists the places where ``vec`` exceeds
        its degree in ascending order -- a scheduling-tree node carries them,
        derived from its parent's -- and is found by scanning ``vec`` when
        omitted.  Equal-marking path entries are never witnesses
        (Definition 4.5 requires ``A != C``; the search closes a cycle there
        instead), which the enumeration guarantees structurally: every
        candidate except the identity has a strictly smaller total.
        """
        self.children_checked += 1
        degrees = self.degrees
        if over is None:
            over = [p for p, count in enumerate(vec) if count > degrees[p]]
        if not over:
            # no place exceeds its degree: condition (c) can never hold
            self.decided_by_degree_filter += 1
            return False
        combos = 1
        for p in over:
            combos *= vec[p] - degrees[p] + 1
            if combos > self.cap:
                self.capped_children += 1
                return None
        candidate = list(vec)
        spans = [range(degrees[p], vec[p] + 1) for p in over]
        for values in product(*spans):
            candidate_total = total
            for p, value in zip(over, values):
                candidate_total -= vec[p] - value
            if candidate_total == total:
                continue  # the identity assignment: A == C is not a witness
            if candidate_total not in total_counts:
                continue  # no path marking carries this token total
            for p, value in zip(over, values):
                candidate[p] = value
            self.candidates_probed += 1
            if tuple(candidate) in path_index:
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
    _bounds_vec_for: Optional[object] = field(
        default=None, init=False, repr=False, compare=False
    )
    _bounds_vec: tuple = field(default=(), init=False, repr=False, compare=False)

    @classmethod
    def uniform(cls, net: PetriNet, bound: int) -> "PlaceBoundCondition":
        """The same pre-defined bound on every place (the [13] approach)."""
        return cls(bounds={place: bound for place in net.places})

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

    def holds(self, tree: SchedulingTreeView, node: int) -> bool:
        vec = tree.vec_of(node)
        return any(vec[pid] > bound for pid, bound in self._bounded_pids(tree.inet))


@dataclass
class UserBoundCondition(TerminationCondition):
    """Respect the per-channel bounds declared in the specification.

    Channel places carrying a ``bound`` attribute (set by the linker from the
    netlist) must never exceed it; this models the blocking-write semantics of
    bounded channels during scheduling.
    """

    bounds: Dict[str, int] = field(default_factory=dict)
    name: str = "user-channel-bounds"
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

    def _bounded_pids(self, inet) -> tuple:
        if self._bounds_vec_for is not inet:
            self._bounds_vec = tuple(
                (inet.place_index[place], bound)
                for place, bound in self.bounds.items()
                if place in inet.place_index
            )
            self._bounds_vec_for = inet
        return self._bounds_vec

    def holds(self, tree: SchedulingTreeView, node: int) -> bool:
        vec = tree.vec_of(node)
        return any(vec[pid] > bound for pid, bound in self._bounded_pids(tree.inet))


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
    max_depth`` are pruned.  The folded search (``depth_cut``) and
    :meth:`holds` (the node's depth equals its proper-ancestor count) make
    the same comparison, so both terminate on the identical node set.
    """

    max_depth: int
    name: str = "max-depth"

    def holds(self, tree: SchedulingTreeView, node: int) -> bool:
        return tree.depth_of(node) > self.max_depth


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
class FoldedTermination:
    """A termination condition folded into the data EP checks per node.

    The built-in leaves become plain values for one snapshot, read by the
    EP search (``_EPSearch``) on every node and lookahead probe:

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
    folded built-ins and any second irrelevance criterion.  The search
    folds only an ``extra``-free condition and otherwise falls back to
    ``termination.holds``.  The disjunction of every folded leaf and
    ``extra`` is exactly the original condition.
    """

    budget: Optional[int] = None
    depth_cut: Optional[int] = None
    bounds: Tuple[Tuple[int, int], ...] = ()
    irrelevance: Optional[IrrelevanceCriterion] = None
    extra: List[TerminationCondition] = field(default_factory=list)


def fold_termination(condition: TerminationCondition, inet) -> FoldedTermination:
    """Fold ``condition`` for the snapshot ``inet`` (see :class:`FoldedTermination`).

    Composites decompose into their leaves and every :class:`NodeBudget`
    (subclasses included) into the budget; the other folded built-ins match
    by exact type, so a subclass overriding ``holds`` keeps its own verdict.
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
