"""Exactness and completeness of the T-invariant basis.

* a brute-force oracle: on small weighted nets, the basis is exactly the set
  of minimal-support T-semiflows, enumerated support by support;
* no fixed-width arithmetic: invariants with entries of 2**63 and beyond come
  out exact instead of wrapping into an empty basis;
* the ``max_rows`` cap: cutting rows warns, the snapshot memo keeps the cut
  basis flagged incomplete, and the Section 5.5.2 precheck does not trust
  it;
* the contraction of series places: the basis, cut or not, is the one the
  elimination alone gives on the whole tableau.
"""

from __future__ import annotations

import itertools
import warnings
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from golden_bases import PFC_GEOMETRIES
from repro.apps import paper_nets
from repro.apps.video import VideoAppConfig, build_video_system
from repro.apps.workloads import random_choice_net, random_marked_graph
from repro.corpus.generator import DEFAULT_SEED, generate_spec, make_unschedulable_spec
from repro.corpus.topologies import build_network
from repro.flowc.linker import link
from repro.petrinet import invariants
from repro.petrinet.analysis import StructuralAnalysis
from repro.petrinet.invariants import (
    InvariantBasis,
    _eliminate,
    invariant_basis,
    is_t_invariant,
    t_invariant_basis,
)
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


# ---------------------------------------------------------------------------
# the contraction of series places
# ---------------------------------------------------------------------------


def plain_basis(net: PetriNet, max_rows: int) -> InvariantBasis:
    """The elimination alone on the whole tableau, expanded and sorted as
    ``invariant_basis`` returns it: the contraction's oracle."""
    indexed = net.indexed()
    vectors, complete = _eliminate(indexed.delta, len(indexed.place_names), max_rows)
    names = indexed.transition_names
    basis = [{names[tid]: x[tid] for tid in sorted(x)} for x in vectors]
    basis.sort(key=lambda inv: (len(inv), sorted(inv.items())))
    return InvariantBasis(basis, complete)


def fan(producers: int, consumers: int) -> PetriNet:
    """Sources ``a*`` feed a hub that sinks ``b*`` drain, ``a0`` through a
    series place: ``producers * consumers`` minimal invariants, all made at
    the hub's column.  When that column is cut, the reduced elimination keeps
    other invariants than the plain one: the fused row ``{a0, a0_feed}``
    comes first in the reduced tableau and last in the whole one."""
    arcs = {"a0_feed": ({}, {"q": 1}), "a0": ({"q": 1}, {"hub": 1})}
    arcs.update({f"a{k}": ({}, {"hub": 1}) for k in range(1, producers)})
    arcs.update({f"b{k}": ({"hub": 1}, {}) for k in range(consumers)})
    return arcs_net(arcs)


CONTRACTION_NETS = {
    **{
        f"pfc_{lines}x{pixels}": (
            lambda lines=lines, pixels=pixels: build_video_system(
                VideoAppConfig(lines, pixels)
            ).net
        )
        for lines, pixels in PFC_GEOMETRIES
    },
    "figure_4a": paper_nets.figure_4a,
    "figure_4b": paper_nets.figure_4b,
    "figure_5": paper_nets.figure_5,
    "figure_6": paper_nets.figure_6,
    "figure_7_k3": lambda: paper_nets.figure_7(3),
    "figure_7_k6": lambda: paper_nets.figure_7(6),
    "figure_8": paper_nets.figure_8,
    # a series place fed 2 and drained 3 at a time: both rows are scaled
    "weighted_series": lambda: arcs_net({"t0": ({"q": 2}, {"p": 2}), "t1": ({"p": 3}, {"q": 3})}),
    # the fusion at one place cancels the other two columns
    "twin_series": lambda: arcs_net({
        "t0": ({"q": 1}, {"p0": 1, "p1": 1}),
        "t1": ({"p0": 1, "p1": 1}, {"q": 1}),
    }),
    # t0's self-loop is an invariant of its own; t1's adds a token to p
    "self_loops": lambda: arcs_net({
        "t0": ({"p": 1}, {"p": 1}),
        "t1": ({"p": 1}, {"p": 2}),
        "t2": ({"p": 1}, {}),
    }),
    "source_beside_ring": source_beside_ring,
    # dropping the source's row leaves h a series place
    "dead_source": lambda: arcs_net({
        "s": ({}, {"h": 1, "z": 1}),
        "r0": ({"k": 1}, {"h": 1}),
        "r1": ({"h": 1}, {"k": 1}),
    }),
    "doubling_ring": lambda: doubling_ring(8),
    # at max_rows=16 the reduced elimination is cut: the fallback runs
    "fan": lambda: fan(4, 5),
}


@pytest.mark.parametrize("max_rows", [4096, 64, 16])
@pytest.mark.parametrize("name", sorted(CONTRACTION_NETS))
def test_contraction_keeps_the_plain_basis(name, max_rows):
    build = CONTRACTION_NETS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert invariant_basis(build(), max_rows=max_rows) == plain_basis(build(), max_rows)


def test_a_cut_reduced_elimination_falls_back_to_the_plain_one(monkeypatch):
    calls = []

    def spy(delta, n_places, max_rows):
        vectors, complete = _eliminate(delta, n_places, max_rows)
        calls.append((len(delta), n_places, complete))
        return vectors, complete

    monkeypatch.setattr(invariants, "_eliminate", spy)
    with pytest.warns(RuntimeWarning, match="max_rows=16") as caught:
        cut = invariant_basis(fan(4, 5), max_rows=16)
    assert len(caught) == 1
    # the contraction fused a0_feed with a0 and took q's column; the
    # reduced tableau was cut at the hub, so the whole one was eliminated
    assert calls == [(9, 1, False), (10, 2, False)]
    assert cut == plain_basis(fan(4, 5), 16) and not cut.complete
    calls.clear()
    assert invariant_basis(fan(4, 5), max_rows=20).complete
    assert calls == [(9, 1, True)]


def contraction_sweep():
    """Every PFC geometry, every 5th pool spec and twenty Figure-4b specs."""
    for lines in range(2, 12):
        for pixels in range(2, 12):
            yield f"pfc_{lines}x{pixels}", build_video_system(VideoAppConfig(lines, pixels)).net
    for seed in range(0, 3000, 5):
        yield f"pool_{seed}", link(build_network(generate_spec(seed))).net
    for index in range(20):
        spec = make_unschedulable_spec(DEFAULT_SEED + index)
        yield f"figure_4b_{index}", link(build_network(spec)).net


@pytest.mark.slow
def test_contraction_keeps_the_plain_basis_on_the_sweep():
    mismatched = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for name, net in contraction_sweep():
            for max_rows in (4096, 64, 16):
                net.invalidate_caches()
                if invariant_basis(net, max_rows=max_rows) != plain_basis(net, max_rows):
                    mismatched.append((name, max_rows))
    assert not mismatched
