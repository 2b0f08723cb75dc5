"""The irrelevance criterion that prunes the scheduling search (Section 4.4).

Section 4.4 stops exploring the scheduling tree past a node in one of two
ways, and the EP search (:class:`~repro.scheduling.ep.SchedulerOptions`)
offers both:

* **The irrelevance criterion** (Definition 4.5), the default: stop at a
  marking that covers an ancestor marking while only adding tokens to
  places that were already saturated (at or above their *degree*,
  Definition 4.4) in the ancestor.
* **Pre-defined place bounds** (the approach of [13]), ``place_bound``:
  stop whenever any place exceeds the bound.  Simple, but the bound must be
  guessed a priori and no constant bound works for some schedulable nets
  (Figure 7).

Definition 4.5 lives here in two forms: :class:`IncrementalIrrelevance`
decides it from a node's over-degree places with hash probes into the path
marking index, so the EP search pays no O(depth) walk per node, and
:func:`witnessed_by` is the exact walk over the ancestors, which decides
the nodes whose candidate witnesses exceed the enumeration cap.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, Iterable, Optional, Sequence, Tuple


def witnessed_by(
    degrees: Sequence[int],
    vec: Sequence[int],
    total: int,
    ancestors: Iterable[Tuple[int, Sequence[int]]],
) -> bool:
    """Definition 4.5 of ``vec`` against ``(total, vec)`` ancestor pairs.

    A marking ``C`` is irrelevant w.r.t. an ancestor marking ``A`` (on the
    path from the root, so reachability holds by construction) when ``A !=
    C``, no place has more tokens in ``A`` than in ``C``, and every place
    where ``C`` has strictly more tokens than ``A`` is already saturated in
    ``A``: ``A[p] >= degrees[p]``.  The equal-marking case is excluded
    because the search closes a cycle there instead of pruning.

    The exact O(depth) walk behind the incremental checker.  ``total`` is
    the token total of ``vec``; ancestors holding more tokens cannot be
    covered.

    Example::

        >>> witnessed_by((3,), (5,), 5, [(3, (3,))])
        True
        >>> witnessed_by((3,), (2,), 2, [(1, (1,))])
        False
    """
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
#: falls back to the exact walk over the path (:func:`witnessed_by`).  The
#: cap bounds per-node work by a constant; in practice (saturated channels
#: a token or two over degree) counts are single-digit.
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
