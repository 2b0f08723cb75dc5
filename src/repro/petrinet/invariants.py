"""Incidence matrix and T-invariant computation.

Section 5.5.2 of the paper uses a non-negative basis of T-invariants (vectors
``x >= 0`` with ``C x = 0`` where ``C`` is the incidence matrix) to guide the
selection of ECSs during scheduling, and uses the *absence* of an invariant
firing the source as a sufficient condition for non-schedulability.

The basis is the set of minimal-support T-semiflows, computed by the classical
elimination of Martínez and Silva (1982): start from the tableau ``[C^T | I]``
and cancel one place column at a time by positive combinations of rows with
opposite signs, keeping only rows of minimal support.  The elimination here is
sparse and exact:

* rows are sparse maps of Python integers, so entries never wrap, and every
  new row is divided by the gcd of its entries;
* a column -> rows index finds the rows a column touches, and the next column
  is the one with the fewest positive x negative row pairs, its count kept up
  to date as rows come and go;
* only the rows a column creates are tested for minimality, against the rows
  the column leaves alone and against each other, on support bitsets.  That is
  enough: the rows that survive a step have pairwise incomparable supports,
  and a new row's support contains its parents', so no new row can dominate
  an old one.

Each minimal support carries one invariant up to scale, so the basis does not
depend on the column order.  It is complete unless the tableau outgrows
``max_rows``; then the cut is reported by a ``RuntimeWarning`` and by
:attr:`InvariantBasis.complete`.

Most places of a compiled FlowC net are series places (one producer, one
consumer), on whose chains each elimination step costs time in the chain's
length.  So a contraction first takes every column with at most one
positive x negative pair, until none is left.  A one-sided column drops its
rows: no semiflow fires them.  A series column, row ``i`` with coefficient
``a`` and row ``j`` with ``-b``, replaces both by ``(b/g) row_i + (a/g)
row_j``, ``g = gcd(a, b)``.  Rows only fuse, so their supports stay pairwise
disjoint (no subset test), the smaller ``x`` map merges into the larger, and
fusing two primitive rows by coprime factors gives a primitive row.  The
elimination then runs on what is left, and its invariants are expanded
through the rows' ``x`` maps.  This is exact, in any contraction order:

* once a set of columns is eliminated uncut, the tableau holds one row per
  minimal support of those columns' semiflows, whatever the order;
* a step on a 0- or 1-pair column adds no row and raises no pair count, so
  every order reaches the same closure, uncut while the tableau starts with
  at most ``max_rows`` rows;
* the plain elimination's heap takes those columns first, so the reduced
  elimination sees the rows and columns, in the order, that the plain one
  sees after its closure, and is cut at the same step or never.

So a complete basis is the plain one; when the reduced elimination is cut,
or the tableau starts with more than ``max_rows`` rows, the plain
elimination runs on the whole tableau and its cut basis is returned.
"""

from __future__ import annotations

import heapq
import warnings
from math import gcd
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.petrinet.net import PetriNet


class InvariantBasis(NamedTuple):
    """A T-invariant basis and whether it holds every minimal-support invariant."""

    invariants: List[Dict[str, int]]
    complete: bool


def incidence_matrix(net: PetriNet) -> Tuple[List[List[int]], List[str], List[str]]:
    """Return ``(C, places, transitions)`` with ``C[i][j] = F(t_j, p_i) - F(p_i, t_j)``.

    ``C`` is a list of rows: rows are indexed by places and columns by
    transitions, both in sorted name order so the matrix is reproducible.
    """
    indexed = net.indexed()
    places = list(indexed.place_names)
    transitions = list(indexed.transition_names)
    matrix = [[0] * len(transitions) for _ in places]
    for tid, deltas in enumerate(indexed.delta):
        for pid, delta in deltas:
            matrix[pid][tid] = delta
    return matrix, places, transitions


def _combine(
    left: Dict[int, int], left_factor: int, right: Dict[int, int], right_factor: int
) -> Dict[int, int]:
    """``left_factor * left + right_factor * right`` as a sparse map without zeros."""
    out = {key: left_factor * value for key, value in left.items()}
    for key, value in right.items():
        total = out.get(key, 0) + right_factor * value
        if total:
            out[key] = total
        else:
            del out[key]
    return out


def _contains_any(support: int, others: Sequence[int]) -> bool:
    """Does ``support`` contain one of the ``others`` supports?"""
    outside = ~support
    for other in others:
        if not other & outside:
            return True
    return False


def _minimal(candidates: List[Tuple[int, int, int]]) -> List[Tuple[int, int, int]]:
    """The ``(support, ...)`` candidates whose support contains no other's.

    Of equal supports the first is kept.  Candidates are visited by support
    size, so a candidate need only be tested against those already kept: a
    strict subset is smaller, and a dropped one has a kept subset of its own.
    """
    kept: List[Tuple[int, int, int]] = []
    supports: List[int] = []
    for candidate in sorted(candidates, key=lambda c: c[0].bit_count()):
        if not _contains_any(candidate[0], supports):
            kept.append(candidate)
            supports.append(candidate[0])
    return kept


def _eliminate(
    delta: Sequence[Sequence[Tuple[int, int]]], n_places: int, max_rows: int
) -> Tuple[List[Dict[int, int]], bool]:
    """Minimal-support T-semiflows as sparse ``{tid: count}`` maps, and
    whether they are all of them (False when the ``max_rows`` cap cut rows).

    ``delta`` holds each transition's nonzero ``(pid, C[pid, tid])`` entries.
    A row is ``(c, x, support)``: the not yet eliminated entries of ``C x``,
    the combination ``x`` itself and its support as a bitset of tids.
    """
    rows: Dict[int, Tuple[Dict[int, int], Dict[int, int], int]] = {}
    positive: List[Set[int]] = [set() for _ in range(n_places)]
    negative: List[Set[int]] = [set() for _ in range(n_places)]

    def add_row(row_id: int, c: Dict[int, int], x: Dict[int, int], support: int) -> None:
        rows[row_id] = (c, x, support)
        for pid, value in c.items():
            (positive if value > 0 else negative)[pid].add(row_id)

    for tid, entries in enumerate(delta):
        add_row(tid, {pid: value for pid, value in entries}, {tid: 1}, 1 << tid)
    next_id = len(delta)
    complete = True
    eliminated = [False] * n_places
    # (positive x negative pairs, pid); stale entries are skipped on pop
    queue = [(len(positive[pid]) * len(negative[pid]), pid) for pid in range(n_places)]
    heapq.heapify(queue)
    while queue:
        pairs, column = heapq.heappop(queue)
        if eliminated[column] or pairs != len(positive[column]) * len(negative[column]):
            continue
        eliminated[column] = True
        pos_ids, neg_ids = sorted(positive[column]), sorted(negative[column])
        parents = {}
        touched: Set[int] = set()
        for row_id in pos_ids + neg_ids:
            parents[row_id] = row = rows.pop(row_id)
            for pid, value in row[0].items():
                (positive if value > 0 else negative)[pid].discard(row_id)
                touched.add(pid)
        if pairs:
            untouched = [support for _c, _x, support in rows.values()]
            candidates = []
            for i in pos_ids:
                support_i = parents[i][2]
                for j in neg_ids:
                    support = support_i | parents[j][2]
                    if not _contains_any(support, untouched):
                        candidates.append((support, i, j))
            candidates = _minimal(candidates)
            room = max(max_rows - len(rows), 0)
            if len(candidates) > room:
                complete = False
                candidates = candidates[:room]
            for support, i, j in candidates:
                c_i, x_i, _ = parents[i]
                c_j, x_j, _ = parents[j]
                a, b = c_i[column], -c_j[column]
                common = gcd(a, b)
                factor_i, factor_j = b // common, a // common
                c = _combine(c_i, factor_i, c_j, factor_j)
                x = _combine(x_i, factor_i, x_j, factor_j)
                divisor = gcd(*c.values(), *x.values())
                if divisor > 1:
                    c = {key: value // divisor for key, value in c.items()}
                    x = {key: value // divisor for key, value in x.items()}
                add_row(next_id, c, x, support)
                next_id += 1
                touched.update(c)
        for pid in touched:
            if not eliminated[pid]:
                heapq.heappush(queue, (len(positive[pid]) * len(negative[pid]), pid))
    return [x for _c, x, _support in rows.values()], complete


def _contract(
    delta: Sequence[Sequence[Tuple[int, int]]], n_places: int
) -> Tuple[List[List[Tuple[int, int]]], int, List[Dict[int, int]]]:
    """Eliminate every column with at most one positive x negative pair (see
    the module docstring).  Returns the rows left as a ``delta`` over the
    columns left (renumbered in place ID order), the number of those
    columns, and each row's ``x`` map over the original tids."""
    cs: List[Optional[Dict[int, int]]] = [dict(entries) for entries in delta]
    xs: List[Optional[Dict[int, int]]] = [{tid: 1} for tid in range(len(delta))]
    positive: List[Set[int]] = [set() for _ in range(n_places)]
    negative: List[Set[int]] = [set() for _ in range(n_places)]
    for row_id, c in enumerate(cs):
        for pid, value in c.items():
            (positive if value > 0 else negative)[pid].add(row_id)
    # a column's pair count never rises here, so a column is queued once
    queued = [len(positive[pid]) * len(negative[pid]) <= 1 for pid in range(n_places)]
    work = [pid for pid in range(n_places) if queued[pid]]
    while work:
        column = work.pop()
        pos_ids, neg_ids = positive[column], negative[column]
        if pos_ids and neg_ids:
            (i,), (j,) = pos_ids, neg_ids
            a, b = cs[i][column], -cs[j][column]
            common = gcd(a, b)
            factor_i, factor_j = b // common, a // common
            if len(xs[i]) < len(xs[j]):
                i, j, factor_i, factor_j = j, i, factor_j, factor_i
            # row i absorbs row j, the smaller x map; a positive factor keeps
            # the signs of row i's entries, so only row j's columns change
            c, x = cs[i], xs[i]
            if factor_i != 1:
                c = cs[i] = {pid: factor_i * value for pid, value in c.items()}
                x = xs[i] = {tid: factor_i * count for tid, count in x.items()}
            for pid, value in cs[j].items():
                (positive if value > 0 else negative)[pid].discard(j)
                old = c.get(pid, 0)
                total = old + factor_j * value
                if old:
                    (positive if old > 0 else negative)[pid].discard(i)
                if total:
                    c[pid] = total
                    (positive if total > 0 else negative)[pid].add(i)
                else:
                    del c[pid]
                if not queued[pid] and len(positive[pid]) * len(negative[pid]) <= 1:
                    queued[pid] = True
                    work.append(pid)
            x_j = xs[j]
            x.update(x_j if factor_j == 1 else {t: factor_j * k for t, k in x_j.items()})
            cs[j] = xs[j] = None
            continue
        for row_id in list(pos_ids or neg_ids):
            for pid, value in cs[row_id].items():
                (positive if value > 0 else negative)[pid].discard(row_id)
                if not queued[pid] and len(positive[pid]) * len(negative[pid]) <= 1:
                    queued[pid] = True
                    work.append(pid)
            cs[row_id] = xs[row_id] = None
    left = [pid for pid in range(n_places) if not queued[pid]]
    columns = {pid: index for index, pid in enumerate(left)}
    live = [row_id for row_id, c in enumerate(cs) if c is not None]
    reduced = [[(columns[pid], value) for pid, value in cs[row_id].items()] for row_id in live]
    return reduced, len(columns), [xs[row_id] for row_id in live]


def _compute_basis(net: PetriNet, max_rows: int) -> InvariantBasis:
    """The contraction and the elimination, with a warning when ``max_rows`` cut it."""
    indexed = net.indexed()
    delta, n_places = indexed.delta, len(indexed.place_names)
    complete = False
    if len(delta) <= max_rows:
        reduced, n_columns, xs = _contract(delta, n_places)
        found, complete = _eliminate(reduced, n_columns, max_rows)
        if complete:
            vectors = [{t: k * n for r, k in y.items() for t, n in xs[r].items()} for y in found]
    if not complete:
        vectors, complete = _eliminate(delta, n_places, max_rows)
    names = indexed.transition_names
    invariants = [{names[tid]: x[tid] for tid in sorted(x)} for x in vectors]
    invariants.sort(key=lambda inv: (len(inv), sorted(inv.items())))
    if not complete:
        warnings.warn(
            f"T-invariant basis of net {net.name!r} cut at max_rows={max_rows}: "
            "it may miss minimal invariants, so it cannot show that no "
            "invariant fires a source",
            RuntimeWarning,
            stacklevel=4,
        )
    return InvariantBasis(invariants, complete)


def invariant_basis(net: PetriNet, *, max_rows: int = 4096) -> InvariantBasis:
    """:func:`t_invariant_basis` together with whether it is complete.

    ``complete`` is False only when the tableau outgrew ``max_rows`` and rows
    were cut; an incomplete basis still holds valid invariants, but not
    necessarily every minimal one, so it cannot prove that no invariant fires
    a given transition.
    """
    cache_key = ("t_invariant_basis", max_rows)
    cache = net.indexed().analysis_cache
    cached = cache.get(cache_key)
    if cached is None:
        cached = cache[cache_key] = _compute_basis(net, max_rows)
    return InvariantBasis([dict(invariant) for invariant in cached.invariants], cached.complete)


def t_invariant_basis(net: PetriNet, *, max_rows: int = 4096) -> List[Dict[str, int]]:
    """Minimal-support non-negative T-invariants of ``net``.

    Returns a list of sparse vectors (transition name -> positive count),
    each divided by the gcd of its entries, ordered by support size and then
    by their sorted items.  Entries are exact Python integers of any size.
    Unless a ``RuntimeWarning`` says otherwise, the basis is complete: it
    holds every minimal-support invariant, and every T-semiflow is a
    non-negative combination of them.  The empty list then means the net
    admits no non-trivial T-invariant, which by the argument of Section 5.5.2
    implies no cyclic schedule exists.

    ``max_rows`` caps the elimination tableau to keep it from exploding on
    pathological nets.  When the cap cuts rows, one ``RuntimeWarning`` naming
    it is emitted and the result is a set of valid invariants that may miss
    minimal ones; :func:`invariant_basis` reports this as ``complete=False``.

    The basis is memoised on the net's indexed snapshot, so repeated calls
    for the same structural version -- one per scheduled source transition
    -- pay the elimination (and any cut warning) only once.  A rebuilt or
    mutated net gets a new snapshot and a fresh elimination.
    """
    return invariant_basis(net, max_rows=max_rows).invariants


def is_t_invariant(net: PetriNet, vector: Dict[str, int]) -> bool:
    """Check that ``vector`` (transition -> count) satisfies ``C x = 0``.

    Exact at any magnitude: the products are Python integers.
    """
    indexed = net.indexed()
    totals: Dict[int, int] = {}
    for transition, count in vector.items():
        tid = indexed.transition_index.get(transition)
        if tid is None or count < 0:
            return False
        for pid, delta in indexed.delta[tid]:
            totals[pid] = totals.get(pid, 0) + delta * count
    return not any(totals.values())


def invariant_support(invariant: Dict[str, int]) -> frozenset:
    """The set of transitions occurring in an invariant."""
    return frozenset(t for t, count in invariant.items() if count > 0)


def combine_invariants(invariants: Sequence[Dict[str, int]]) -> Dict[str, int]:
    """Component-wise sum of several invariants (itself an invariant)."""
    result: Dict[str, int] = {}
    for invariant in invariants:
        for transition, count in invariant.items():
            result[transition] = result.get(transition, 0) + count
    return {t: c for t, c in result.items() if c}


def firing_count_vector(sequence: Sequence[str]) -> Dict[str, int]:
    """Parikh vector of a firing sequence."""
    counts: Dict[str, int] = {}
    for transition in sequence:
        counts[transition] = counts.get(transition, 0) + 1
    return counts


def subtract_firings(invariant: Dict[str, int], fired: Dict[str, int]) -> Optional[Dict[str, int]]:
    """Subtract fired counts from an invariant, clipping at zero.

    Returns ``None`` if the invariant is exhausted (all entries consumed),
    which signals that the corresponding cyclic behaviour has completed.
    """
    remaining: Dict[str, int] = {}
    for transition, count in invariant.items():
        left = count - fired.get(transition, 0)
        if left > 0:
            remaining[transition] = left
    return remaining or None
