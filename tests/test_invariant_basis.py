"""Exactness and completeness of the T-invariant basis.

* a brute-force oracle: on small weighted nets, the basis is exactly the set
  of minimal-support T-semiflows, enumerated support by support;
* no fixed-width arithmetic: invariants with entries of 2**63 and beyond come
  out exact instead of wrapping into an empty basis;
* the ``max_rows`` cap: cutting rows warns, the snapshot memo keeps the cut
  basis flagged incomplete, and the Section 5.5.2 precheck does not trust
  it.
"""

from __future__ import annotations

import itertools
import warnings
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from repro.apps.workloads import random_choice_net, random_marked_graph
from repro.petrinet.analysis import StructuralAnalysis
from repro.petrinet.invariants import invariant_basis, is_t_invariant, t_invariant_basis
from repro.petrinet.net import PetriNet, SourceKind
from repro.scheduling import heuristics
from repro.scheduling.ep import SchedulerOptions, find_schedule


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------


def _positive_kernel_vector(
    deltas: Sequence[Dict[int, int]], support: Sequence[int]
) -> Optional[List[int]]:
    """The kernel of ``C`` restricted to the ``support`` columns, when it is
    spanned by one strictly positive vector: that vector, gcd-normalised."""
    places = sorted({pid for tid in support for pid in deltas[tid]})
    matrix = [[Fraction(deltas[tid].get(pid, 0)) for tid in support] for pid in places]
    pivots: List[int] = []
    for col in range(len(support)):
        row = len(pivots)
        pivot = next((r for r in range(row, len(matrix)) if matrix[r][col]), None)
        if pivot is None:
            continue
        matrix[row], matrix[pivot] = matrix[pivot], matrix[row]
        scale = matrix[row][col]
        matrix[row] = [value / scale for value in matrix[row]]
        for other in range(len(matrix)):
            if other != row and matrix[other][col]:
                factor = matrix[other][col]
                matrix[other] = [a - factor * b for a, b in zip(matrix[other], matrix[row])]
        pivots.append(col)
    free = [col for col in range(len(support)) if col not in pivots]
    if len(free) != 1:
        return None
    vector = [Fraction(0)] * len(support)
    vector[free[0]] = Fraction(1)
    for row, col in enumerate(pivots):
        vector[col] = -matrix[row][free[0]]
    if not (all(v > 0 for v in vector) or all(v < 0 for v in vector)):
        return None
    scale = lcm(*(v.denominator for v in vector))
    integers = [abs(int(v * scale)) for v in vector]
    divisor = gcd(*integers)
    return [value // divisor for value in integers]


def brute_force_basis(net: PetriNet) -> List[Dict[str, int]]:
    """Minimal-support T-semiflows, enumerated by support.

    A support qualifies when the kernel of ``C`` restricted to it is spanned
    by one strictly positive vector and no smaller qualifying support lies
    inside it.
    """
    indexed = net.indexed()
    names = indexed.transition_names
    deltas = [dict(entries) for entries in indexed.delta]
    qualifying: Dict[tuple, List[int]] = {}
    for size in range(1, len(names) + 1):
        for support in itertools.combinations(range(len(names)), size):
            if any(set(smaller) <= set(support) for smaller in qualifying):
                continue
            vector = _positive_kernel_vector(deltas, support)
            if vector is not None:
                qualifying[support] = vector
    basis = [
        {names[tid]: count for tid, count in zip(support, vector)}
        for support, vector in qualifying.items()
    ]
    basis.sort(key=lambda inv: (len(inv), sorted(inv.items())))
    return basis


@st.composite
def weighted_nets(draw) -> PetriNet:
    """Up to 7 transitions and 6 places, arcs of weight 1..3 (or none)."""
    transitions = draw(st.integers(min_value=1, max_value=7))
    places = draw(st.integers(min_value=1, max_value=6))
    weight = st.sampled_from((0, 0, 0, 1, 2, 3))
    net = PetriNet(name="weighted")
    for t in range(transitions):
        net.add_transition(f"t{t}")
    for p in range(places):
        net.add_place(f"p{p}")
        for t in range(transitions):
            consumed, produced = draw(weight), draw(weight)
            if consumed:
                net.add_arc(f"p{p}", f"t{t}", consumed)
            if produced:
                net.add_arc(f"t{t}", f"p{p}", produced)
    return net


def arcs_net(arcs: Dict[str, Tuple[Dict[str, int], Dict[str, int]]]) -> PetriNet:
    """A net from ``transition -> (consumed, produced)`` place weights."""
    net = PetriNet(name="arcs")
    for place in sorted({p for pair in arcs.values() for side in pair for p in side}):
        net.add_place(place)
    for transition, (consumed, produced) in arcs.items():
        net.add_transition(transition)
        for place, weight in consumed.items():
            net.add_arc(place, transition, weight)
        for place, weight in produced.items():
            net.add_arc(transition, place, weight)
    return net


#: A row combined at the second column contains a row the first column made,
#: which that second column leaves alone.
NEW_ROW_CONTAINS_UNTOUCHED_ROW = arcs_net({
    "t0": ({}, {"p0": 2, "p1": 1}),
    "t1": ({"p0": 2, "p1": 1}, {}),
    "t2": ({}, {"p0": 3, "p1": 1}),
    "t3": ({"p0": 3, "p1": 1}, {}),
})
#: One column's new rows contain each other.
NEW_ROWS_CONTAIN_EACH_OTHER = arcs_net({
    "t0": ({"p0": 1, "p1": 2}, {}),
    "t1": ({}, {"p0": 1, "p1": 1}),
    "t2": ({"p0": 1}, {"p1": 2}),
    "t3": ({"p0": 2, "p1": 3}, {"p0": 3}),
})


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(weighted_nets())
@example(NEW_ROW_CONTAINS_UNTOUCHED_ROW)
@example(NEW_ROWS_CONTAIN_EACH_OTHER)
def test_basis_equals_brute_force_on_weighted_nets(net):
    assert t_invariant_basis(net) == brute_force_basis(net)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=500))
def test_basis_equals_brute_force_on_choice_nets(branch_length, seed):
    net = random_choice_net(branch_length, seed=seed)
    assume(len(net.transitions) <= 7)
    assert t_invariant_basis(net) == brute_force_basis(net)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=500))
def test_basis_equals_brute_force_on_marked_graphs(transitions, seed):
    net = random_marked_graph(transitions, seed=seed)
    assert t_invariant_basis(net) == brute_force_basis(net)


# ---------------------------------------------------------------------------
# exact arithmetic
# ---------------------------------------------------------------------------


def doubling_ring(half: int) -> PetriNet:
    """A cycle of ``2 * half`` transitions whose one minimal invariant peaks
    at ``2**half``: ``t_i`` puts 2 tokens into ``p_i`` and ``t_(i+1)`` takes 1
    for ``i < half``; the weights are reversed for the other places."""
    n = 2 * half
    net = PetriNet(name=f"doubling_ring_{half}")
    for i in range(n):
        net.add_transition(f"t{i:03d}")
    for i in range(n):
        produced, consumed = (2, 1) if i < half else (1, 2)
        net.add_place(f"p{i:03d}")
        net.add_arc(f"t{i:03d}", f"p{i:03d}", produced)
        net.add_arc(f"p{i:03d}", f"t{(i + 1) % n:03d}", consumed)
    return net


@pytest.mark.parametrize("half", [62, 63, 70])
def test_invariants_beyond_int64_are_exact(half):
    expected = {f"t{i:03d}": 2 ** min(i, 2 * half - i) for i in range(2 * half)}
    basis = invariant_basis(doubling_ring(half))
    assert basis.complete
    assert basis.invariants == [expected]
    assert max(expected.values()) == 2**half
    assert is_t_invariant(doubling_ring(half), expected)


def test_search_guided_by_an_invariant_beyond_int64_runs():
    """The source's invariant has a count of 2**63: the ordering heuristic
    must not squeeze it into an int64 array."""
    net = PetriNet(name="doubling_chain")
    net.add_transition("src", source_kind=SourceKind.UNCONTROLLABLE)
    previous = "src"
    for i in range(64):
        net.add_place(f"p{i:02d}")
        net.add_arc(previous, f"p{i:02d}", 2 if i else 1)
        net.add_transition(f"t{i:02d}")
        net.add_arc(f"p{i:02d}", f"t{i:02d}")
        previous = f"t{i:02d}"
    assert t_invariant_basis(net)[0]["t63"] == 2**63
    result = find_schedule(net, "src", options=SchedulerOptions(max_nodes=500))
    assert not result.success


# ---------------------------------------------------------------------------
# the row cap
# ---------------------------------------------------------------------------


def source_beside_ring(ring: int = 4) -> PetriNet:
    """An uncontrollable source whose tokens nothing consumes, beside a ring:
    the only minimal invariant is the ring, which does not fire the source."""
    net = PetriNet(name="source_beside_ring")
    net.add_transition("a", source_kind=SourceKind.UNCONTROLLABLE)
    net.add_place("p")
    net.add_arc("a", "p")
    for i in range(ring):
        net.add_transition(f"r{i}")
    for i in range(ring):
        net.add_place(f"q{i}", 1 if i == ring - 1 else 0)
        net.add_arc(f"r{i}", f"q{i}")
        net.add_arc(f"q{i}", f"r{(i + 1) % ring}")
    return net


RING = {"r0": 1, "r1": 1, "r2": 1, "r3": 1}


def test_cut_basis_warns_once_and_is_never_cached_as_complete():
    net = source_beside_ring()
    with pytest.warns(RuntimeWarning, match="max_rows=2") as caught:
        cut = invariant_basis(net, max_rows=2)
    assert len(caught) == 1
    assert not cut.complete
    assert RING not in cut.invariants
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the snapshot memo keeps the flag, with no second warning
        assert invariant_basis(net, max_rows=2) == cut
        # the uncut basis of the same net is memoised beside it
        full = invariant_basis(net)
    assert full.complete and full.invariants == [RING]
    # a rebuilt net runs the elimination again, and warns again
    with pytest.warns(RuntimeWarning, match="max_rows=2") as caught:
        assert invariant_basis(source_beside_ring(), max_rows=2) == cut
    assert len(caught) == 1


def test_precheck_trusts_only_a_complete_basis(monkeypatch):
    result = find_schedule(source_beside_ring(), "a")
    assert not result.success
    assert "T-invariant" in result.failure_reason
    monkeypatch.setattr(
        heuristics, "invariant_basis", lambda net: invariant_basis(net, max_rows=2)
    )
    with pytest.warns(RuntimeWarning, match="max_rows=2"):
        result = find_schedule(source_beside_ring(), "a")
    # the search ran and found no schedule on its own
    assert not result.success
    assert "T-invariant" not in result.failure_reason
    assert result.tree_nodes > 0


def test_caller_supplied_invariants_prove_nothing():
    """The precheck reads only the basis the guide computes itself; there is
    no way to hand it invariants."""
    net = source_beside_ring()
    analysis = StructuralAnalysis.of(net)
    assert not heuristics.InvariantGuide(net, analysis, "a").source_is_coverable()
