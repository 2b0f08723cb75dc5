"""Batched NumPy reachability sweeps: one row per marking.

The facade walks markings one at a time; the experiments that *sweep* many
markings at once (irrelevance studies, boundedness scans over a reachable
set) were paying a Python-level loop per marking.  This module gives them a
dense alternative: a marking **matrix** ``M`` of shape ``(n_markings,
n_places)`` with one row per marking, against which

* enabledness of every transition at every marking is ``n_transitions``
  vectorized comparisons (:func:`enabled_mask`),
* firing a transition over all rows is one broadcast add (:func:`fire_rows`),
* place-bound / irrelevance queries are row-wise reductions
  (:func:`bound_violation_mask`, :func:`irrelevance_mask`),
* bounded reachability explores a whole BFS frontier per step
  (:func:`reachable_matrix`).

All matrices derived from the net structure (consumption, delta) are cached
on ``IndexedNet.analysis_cache`` and die with the structural snapshot.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.petrinet.indexed import IndexedNet, MarkingVec
from repro.petrinet.net import PetriNet

_CONSUME_KEY = ("batched", "consume_matrix")
_DELTA_KEY = ("batched", "delta_matrix")


def consumption_matrix(inet: IndexedNet) -> np.ndarray:
    """``W[t, p] = F(p, t)``: tokens transition ``t`` needs from place ``p``."""
    cached = inet.analysis_cache.get(_CONSUME_KEY)
    if cached is None:
        matrix = np.zeros(
            (len(inet.transition_names), len(inet.place_names)), dtype=np.int64
        )
        for tid, sparse in enumerate(inet.consume):
            for pid, weight in sparse:
                matrix[tid, pid] = weight
        matrix.setflags(write=False)
        inet.analysis_cache[_CONSUME_KEY] = cached = matrix
    return cached


def delta_matrix(inet: IndexedNet) -> np.ndarray:
    """``D[t, p]``: marking change at place ``p`` when ``t`` fires."""
    cached = inet.analysis_cache.get(_DELTA_KEY)
    if cached is None:
        matrix = np.zeros(
            (len(inet.transition_names), len(inet.place_names)), dtype=np.int64
        )
        for tid, sparse in enumerate(inet.delta):
            for pid, delta in sparse:
                matrix[tid, pid] = delta
        matrix.setflags(write=False)
        inet.analysis_cache[_DELTA_KEY] = cached = matrix
    return cached


# ---------------------------------------------------------------------------
# batched firing semantics
# ---------------------------------------------------------------------------


def enabled_mask(inet: IndexedNet, matrix: np.ndarray) -> np.ndarray:
    """Boolean ``(n_markings, n_transitions)``: which transition is enabled where.

    Looping over transitions (small, fixed) keeps the working set at one
    ``(n_markings, n_places)`` comparison per transition instead of a cubic
    broadcast, so sweeps over tens of thousands of markings stay in cache.
    """
    needs = consumption_matrix(inet)
    result = np.empty((matrix.shape[0], needs.shape[0]), dtype=bool)
    for tid in range(needs.shape[0]):
        result[:, tid] = (matrix >= needs[tid]).all(axis=1)
    return result


def fire_rows(inet: IndexedNet, matrix: np.ndarray, tid: int) -> np.ndarray:
    """Fire ``tid`` at every row (caller guarantees enabledness)."""
    return matrix + delta_matrix(inet)[tid]


# ---------------------------------------------------------------------------
# batched termination queries
# ---------------------------------------------------------------------------


def bound_violation_mask(
    matrix: np.ndarray, bounds: Sequence[Tuple[int, int]]
) -> np.ndarray:
    """Rows where some bounded place exceeds its bound.

    ``bounds`` is a sequence of ``(place_id, bound)`` pairs -- the dense form
    the termination conditions already cache per snapshot.
    """
    result = np.zeros(matrix.shape[0], dtype=bool)
    for pid, bound in bounds:
        result |= matrix[:, pid] > bound
    return result


def irrelevance_mask(
    matrix: np.ndarray, ancestor: np.ndarray, degrees: np.ndarray
) -> np.ndarray:
    """Rows irrelevant w.r.t. ``ancestor`` under Definition 4.5.

    A row ``M`` is irrelevant when it covers the ancestor, differs from it,
    and every place where it grew was already saturated (``ancestor[p] >=
    degree[p]``).  Reachability from the ancestor (condition (a)) is the
    caller's knowledge -- e.g. rows drawn from the ancestor's reachability
    cone, or tree descendants.
    """
    ancestor = np.asarray(ancestor, dtype=np.int64)
    degrees = np.asarray(degrees, dtype=np.int64)
    cover = (matrix >= ancestor).all(axis=1)
    differs = (matrix != ancestor).any(axis=1)
    grew_unsaturated = ((matrix > ancestor) & (ancestor < degrees)).any(axis=1)
    return cover & differs & ~grew_unsaturated


# ---------------------------------------------------------------------------
# batched reachability
# ---------------------------------------------------------------------------


def reachable_matrix(
    net: PetriNet,
    *,
    max_nodes: int = 10000,
    max_tokens_per_place: Optional[int] = None,
) -> np.ndarray:
    """Bounded BFS over markings, one whole frontier per step.

    Explores the same marking set as
    :func:`repro.petrinet.reachability.build_reachability_graph` with the
    equivalent cut-offs, but expands the entire frontier at once: one
    :func:`enabled_mask` per BFS level, one broadcast add per (level,
    transition) pair, dedup via hashed rows.  Returns the matrix of explored
    markings (first row = initial marking, rows in BFS discovery order).
    """
    from repro.petrinet.indexed import MarkingStore

    inet = net.indexed()
    store = MarkingStore()  # canonical successor vectors via bulk interning
    seen: Dict[MarkingVec, int] = {}
    rows: List[MarkingVec] = []

    def admit(vec: MarkingVec) -> bool:
        if vec in seen or len(rows) >= max_nodes:
            return False
        seen[vec] = len(rows)
        rows.append(vec)
        return True

    admit(inet.initial_vec)
    frontier = [inet.initial_vec]
    while frontier and len(rows) < max_nodes:
        matrix = np.asarray(frontier, dtype=np.int64)
        if max_tokens_per_place is not None:
            expandable = (matrix <= max_tokens_per_place).all(axis=1)
            matrix = matrix[expandable]
            if matrix.shape[0] == 0:
                break
        enabled = enabled_mask(inet, matrix)
        next_frontier: List[MarkingVec] = []
        for tid in range(enabled.shape[1]):
            firing_rows = matrix[enabled[:, tid]]
            if firing_rows.shape[0] == 0:
                continue
            successors = fire_rows(inet, firing_rows, tid)
            for vec in store.intern_rows(successors):
                if admit(vec):
                    next_frontier.append(vec)
            if len(rows) >= max_nodes:
                break
        frontier = next_frontier
    return np.asarray(rows, dtype=np.int64)
