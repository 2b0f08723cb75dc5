"""Fused EP expansion kernel: expand + terminate + admit in one call.

The batched EP backend (PR 3) already replaced the per-transition scalar
walk with whole-frontier NumPy calls, but each node expansion still pays a
*sequence* of dispatches -- ``expand_children`` for the child matrix, one
``frontier_mask`` per termination condition (the irrelevance mask being an
O(depth) broadcast), then the tuple conversion feeding
``MarkingStore.intern_many``.  This module fuses that sequence into one
kernel call over contiguous int64 buffers, with two tiers:

* **compiled** -- a ``numba.njit(cache=True)`` loop nest computing child
  rows, bound/depth verdicts and the over-degree pre-filter in a single
  pass.  Preferred whenever numba imports and compiles.
* **numpy** -- the always-available reference: the same outputs from a
  handful of vectorized NumPy expressions.  Both tiers are bit-identical by
  construction (and pinned so by ``tests/test_kernel.py``).

Tier selection mirrors the shared-memory plane's fallback contract
(:mod:`repro.petrinet.shm`): ``REPRO_KERNEL=0`` or a numba import/compile
failure degrades to the NumPy tier with a :class:`RuntimeWarning` (once per
process), never an error, and never a behaviour change.

The module also hosts the **incremental irrelevance** check that retires
the last O(depth) cost per node.  Definition 4.5 says a child marking ``C``
is irrelevant w.r.t. a path ancestor ``A`` iff ``A != C``, ``A <= C``
component-wise, and every place where ``C`` grew was already saturated in
``A`` (``A[p] >= degree[p]``).  Per place that pins ``A[p]`` to::

    A[p] == C[p]                      when C[p] <= degree[p]
    A[p] in [degree[p], C[p]]         when C[p] >  degree[p]

so the *only* markings that could witness irrelevance are the (usually
zero or a handful of) combinations over the over-degree places.  Instead
of comparing ``C`` against every ancestor row, we enumerate those candidate
markings and hash-probe them against the path's marking index, which
:class:`~repro.scheduling.ep.SchedulingTree` already maintains on
push/pop.  A child with no over-degree place can never be irrelevant --
one vectorized compare decides it.  Verdicts are bitwise identical to
:func:`repro.petrinet.batched.irrelevance_frontier_mask`; when the
combination count exceeds :data:`IRRELEVANCE_ENUM_CAP` the caller falls
back to that exact broadcast.
"""

from __future__ import annotations

import os
import warnings
from itertools import product
from typing import Dict, Optional, Sequence, Tuple

try:  # the fused tiers need NumPy; the incremental checker never does
    import numpy as np
except ImportError:  # pragma: no cover - numpy is a baked-in test dependency
    np = None

#: Environment knob of the compiled tier.  ``0`` / ``false`` / ``off`` /
#: ``no`` (any case) disables it; everything else (including unset) leaves
#: it on.  Mirrors ``REPRO_SHM`` / ``REPRO_CACHE``.
KERNEL_ENV = "REPRO_KERNEL"

#: The two kernel tiers, fastest first.  ``resolve_kernel_tier`` returns one
#: of these; ``SchedulerOptions.kernel_tier`` may pin one explicitly.
KERNEL_TIERS = ("compiled", "numpy")

#: Maximum number of candidate ancestor markings the incremental
#: irrelevance check enumerates per child before falling back to the full
#: ancestor-matrix broadcast.  The cap bounds per-child work by a constant;
#: in practice (saturated channels a token or two over degree) counts are
#: single-digit.
IRRELEVANCE_ENUM_CAP = 64


def kernel_enabled() -> bool:
    """True unless ``REPRO_KERNEL`` disables the compiled tier."""
    return os.environ.get(KERNEL_ENV, "1").strip().lower() not in {
        "0",
        "false",
        "off",
        "no",
    }


# -- compiled-tier loading ---------------------------------------------------

_UNSET = object()
_compiled_ops = _UNSET  # callable | None once probed
_compiled_error: Optional[str] = None
_warned_fallback = False


def _load_compiled():
    """Probe numba and compile the fused loop; ``None`` when unavailable.

    The result (including failure) is cached for the process, so the import
    and compile cost is paid at most once.
    """
    global _compiled_ops, _compiled_error
    if _compiled_ops is not _UNSET:
        return _compiled_ops
    try:
        import numba

        @numba.njit(cache=True)
        def _fused(base, delta, tids, bound_pids, bound_vals, degrees,
                   depth_pruned, check_degrees):  # pragma: no cover - needs numba
            k = tids.shape[0]
            n_places = base.shape[0]
            rows = np.empty((k, n_places), dtype=np.int64)
            pruned = np.zeros(k, dtype=np.bool_)
            over = np.zeros(k, dtype=np.bool_)
            for i in range(k):
                tid = tids[i]
                for p in range(n_places):
                    value = base[p] + delta[tid, p]
                    rows[i, p] = value
                    if check_degrees and value > degrees[p]:
                        over[i] = True
                if depth_pruned:
                    pruned[i] = True
                else:
                    for j in range(bound_pids.shape[0]):
                        if rows[i, bound_pids[j]] > bound_vals[j]:
                            pruned[i] = True
                            break
            return rows, pruned, over

        # force compilation now so a broken toolchain degrades at resolve
        # time (with the warning) instead of mid-search
        probe_base = np.zeros(1, dtype=np.int64)
        probe_delta = np.zeros((1, 1), dtype=np.int64)
        probe_ids = np.zeros(1, dtype=np.int64)
        probe_bounds = np.zeros(0, dtype=np.int64)
        _fused(probe_base, probe_delta, probe_ids, probe_bounds, probe_bounds,
               probe_base, False, False)
        _compiled_ops = _fused
    except Exception as exc:  # import error, compile error, bad install
        _compiled_ops = None
        _compiled_error = f"{type(exc).__name__}: {exc}"
    return _compiled_ops


def compiled_tier_available() -> bool:
    """True when numba imports and the fused loop compiles."""
    return _load_compiled() is not None


def reset_kernel_warning() -> None:
    """Re-arm the once-per-process fallback warning (test hook)."""
    global _warned_fallback
    _warned_fallback = False


def _warn_fallback(reason: str) -> None:
    global _warned_fallback
    if _warned_fallback:
        return
    _warned_fallback = True
    warnings.warn(
        f"compiled kernel tier unavailable ({reason}); "
        "EP searches run on the NumPy reference tier (same results, slower)",
        RuntimeWarning,
        stacklevel=3,
    )


def resolve_kernel_tier(requested: Optional[str] = None, *, warn: bool = True) -> str:
    """Resolve a kernel-tier request to ``"compiled"`` or ``"numpy"``.

    ``None`` (auto) prefers the compiled tier; ``REPRO_KERNEL=0`` or a numba
    import/compile failure degrades to ``"numpy"`` with a once-per-process
    :class:`RuntimeWarning` (suppress via ``warn=False`` for key-derivation
    callers).  An explicit ``"numpy"`` request is honoured silently -- it is
    a deliberate choice, e.g. the tier a parallel fan-out pinned into the
    shipped options after warning on the coordinator.
    """
    if requested is not None and requested not in KERNEL_TIERS:
        raise ValueError(
            f"unknown kernel tier {requested!r}; pick one of {KERNEL_TIERS}"
        )
    if requested == "numpy":
        return "numpy"
    if not kernel_enabled():
        if warn:
            _warn_fallback(f"{KERNEL_ENV} disables it")
        return "numpy"
    if not compiled_tier_available():
        if warn:
            _warn_fallback(_compiled_error or "numba is not importable")
        return "numpy"
    return "compiled"


# -- incremental irrelevance -------------------------------------------------


class IncrementalIrrelevance:
    """Depth-independent Definition 4.5 verdicts via the path marking index.

    One instance accumulates op-count statistics across a search; the
    depth-regression tests assert bounds on these counters instead of wall
    clock.  ``check`` returns ``True`` / ``False``, or ``None`` when the
    candidate-combination count exceeds the enumeration cap and the caller
    must fall back to the exact ancestor-matrix broadcast.
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


# -- the fused expansion kernel ----------------------------------------------


def _numpy_fused(base, delta, tids, bound_pids, bound_vals, degrees,
                 depth_pruned, check_degrees):
    """NumPy reference tier: same outputs as the compiled loop."""
    rows = base + delta[tids]
    if depth_pruned:
        pruned = np.ones(rows.shape[0], dtype=bool)
    elif bound_pids.size:
        pruned = (rows[:, bound_pids] > bound_vals).any(axis=1)
    else:
        pruned = np.zeros(rows.shape[0], dtype=bool)
    if check_degrees:
        over = (rows > degrees).any(axis=1)
    else:
        over = np.zeros(rows.shape[0], dtype=bool)
    return rows, pruned, over


class ExpansionKernel:
    """One search's fused expand + terminate pipeline over int64 buffers.

    Built per :class:`~repro.scheduling.ep._EPSearch` from the search's
    :class:`~repro.scheduling.termination.FoldedTermination`.  The four
    built-in maskable conditions arrive folded into kernel inputs --
    irrelevance into the incremental path check, place/channel bounds into
    one ``(pid, bound)`` array, max-depth into a single threshold; any
    *other* maskable condition (user-defined subclasses included) is still
    evaluated through the public ``frontier_mask`` protocol against the
    dense path matrix, so custom conditions keep the fused backend.  Node
    budgets (a child's index is only known when it is created) and
    admission (``add_child`` / ``intern_many``, so the interned-marking set
    is identical to the scalar backend's) stay with the caller.
    """

    def __init__(self, inet, fold, *, tier: Optional[str] = None):
        from repro.petrinet.batched import delta_matrix

        self.inet = inet
        # re-resolving an explicit "compiled" pin re-checks availability, so a
        # worker whose environment lost numba degrades (with the warning)
        # instead of crashing
        self.tier = resolve_kernel_tier(tier)
        ops = _load_compiled() if self.tier == "compiled" else None
        if ops is None:
            self.tier = "numpy"
            ops = _numpy_fused
        self._ops = ops
        self._delta = delta_matrix(inet)
        self._token_delta = inet.token_delta

        self.criterion = fold.irrelevance
        self.incremental: Optional[IncrementalIrrelevance] = None
        if self.criterion is not None:
            self.incremental = self.criterion.incremental_for(inet)
            self._degrees_np = np.asarray(
                self.criterion.degrees_vec(inet), dtype=np.int64
            )
        else:
            # unused by the ops when check_degrees is False; any int64 row works
            self._degrees_np = np.zeros(len(inet.place_names), dtype=np.int64)
        self._bound_pids = np.asarray([p for p, _ in fold.bounds], dtype=np.int64)
        self._bound_vals = np.asarray([b for _, b in fold.bounds], dtype=np.int64)
        self._depth_cut = fold.depth_cut
        # conditions evaluated via the frontier_mask protocol
        self.extra = list(fold.extra)
        # stats of the full-broadcast fallback (cap-exceeded children)
        self.fallback_children = 0
        self.fallback_ancestor_rows = 0

    def expand(self, tree, vec, tids: Sequence[int], child_depth: int):
        """Children of one node plus their termination verdicts.

        Returns ``(vecs, pruned)`` exactly like the un-fused batched path:
        one marking tuple and one boolean per candidate transition, with
        ``pruned[i]`` equal to the disjunction of every maskable condition
        on a child carrying ``vecs[i]`` at ``child_depth``.
        """
        from repro.petrinet.batched import (
            FRONTIER_TOKEN_GUARD,
            FrontierOverflowError,
            irrelevance_frontier_mask,
        )

        base = np.asarray(vec, dtype=np.int64)
        if base.size and int(np.abs(base).max()) >= FRONTIER_TOKEN_GUARD:
            raise FrontierOverflowError(
                "marking holds token counts >= 2**62; use the scalar backend"
            )
        tids_arr = np.asarray(tids, dtype=np.int64)
        depth_pruned = self._depth_cut is not None and child_depth > self._depth_cut
        rows, pruned, over = self._ops(
            base,
            self._delta,
            tids_arr,
            self._bound_pids,
            self._bound_vals,
            self._degrees_np,
            depth_pruned,
            self.incremental is not None,
        )
        vecs = list(map(tuple, rows.tolist()))
        if self.incremental is not None and over.any():
            path_index = tree._markings_on_path
            total_counts = tree._path_total_counts
            base_total = int(base.sum())
            token_delta = self._token_delta
            checker = self.incremental
            for i in np.nonzero(over)[0]:
                if pruned[i]:
                    continue  # already terminated; the verdict is a disjunction
                verdict = checker.check(
                    vecs[i],
                    path_index,
                    total_counts,
                    base_total + token_delta[tids[i]],
                )
                if verdict is None:
                    # cap exceeded: exact broadcast against the ancestor matrix
                    ancestors = tree.path_matrix()
                    self.fallback_children += 1
                    self.fallback_ancestor_rows += ancestors.shape[0]
                    verdict = bool(
                        irrelevance_frontier_mask(
                            rows[i : i + 1], ancestors, self._degrees_np
                        )[0]
                    )
                if verdict:
                    pruned[i] = True
        for condition in self.extra:
            pruned |= condition.frontier_mask(
                self.inet, tree.path_matrix(), rows, child_depth
            )
        return vecs, pruned.tolist()
