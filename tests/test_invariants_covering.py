"""Tests for T-invariant computation and the binate covering heuristic."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import paper_nets
from repro.apps.workloads import random_marked_graph
from repro.petrinet.covering import is_feasible, solve_binate_covering
from repro.petrinet.invariants import (
    combine_invariants,
    firing_count_vector,
    incidence_matrix,
    invariant_support,
    is_t_invariant,
    subtract_firings,
    t_invariant_basis,
)


def test_incidence_matrix_shape_and_values():
    net = paper_nets.figure_8()
    matrix, places, transitions = incidence_matrix(net)
    assert len(matrix) == len(places)
    assert all(len(row) == len(transitions) for row in matrix)
    a_col = transitions.index("a")
    p1_row = places.index("p1")
    assert matrix[p1_row][a_col] == 1
    e_col = transitions.index("e")
    p3_row = places.index("p3")
    assert matrix[p3_row][e_col] == -2


def test_t_invariants_of_figure_8():
    net = paper_nets.figure_8()
    basis = t_invariant_basis(net)
    assert basis, "figure 8 admits T-invariants"
    for invariant in basis:
        assert is_t_invariant(net, invariant)
    # the b/d cycle: a + b + d is an invariant; the c/e cycle needs 2 a and 2 c
    supports = {frozenset(invariant) for invariant in basis}
    assert frozenset({"a", "b", "d"}) in supports
    assert frozenset({"a", "c", "e"}) in supports


def test_t_invariants_of_figure_5_cover_both_sources():
    net = paper_nets.figure_5()
    basis = t_invariant_basis(net)
    all_support = set().union(*(invariant_support(inv) for inv in basis))
    assert {"a", "b", "c", "d", "e", "f"} <= all_support


def test_net_without_invariants():
    net = paper_nets.figure_4b()
    # a and b feed c, which has no way to return tokens: invariants exist only
    # with both sources, never with c alone... the combined {a, b, c} is one.
    basis = t_invariant_basis(net)
    for invariant in basis:
        assert is_t_invariant(net, invariant)


def test_is_t_invariant_rejects_wrong_vector():
    net = paper_nets.figure_8()
    assert not is_t_invariant(net, {"a": 1})
    assert not is_t_invariant(net, {"nonexistent": 1})
    assert not is_t_invariant(net, {"a": -1, "b": 1})


def test_combine_and_subtract_invariants():
    a = {"x": 1, "y": 2}
    b = {"y": 1}
    combined = combine_invariants([a, b])
    assert combined == {"x": 1, "y": 3}
    fired = firing_count_vector(["x", "y", "y", "y"])
    assert fired == {"x": 1, "y": 3}
    assert subtract_firings(combined, fired) is None
    assert subtract_firings(combined, {"y": 1}) == {"x": 1, "y": 2}


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=100))
def test_marked_graph_invariants_property(transitions, seed):
    """Strongly-connected marked graphs always have the all-ones T-invariant."""
    net = random_marked_graph(transitions, seed=seed)
    matrix, _places, _names = incidence_matrix(net)
    assert all(sum(row) == 0 for row in matrix)  # C times the all-ones vector
    basis = t_invariant_basis(net)
    assert basis
    for invariant in basis:
        assert is_t_invariant(net, invariant)


# ---------------------------------------------------------------------------
# binate covering: rows are (ones, zeros) column masks, a selection one mask
# ---------------------------------------------------------------------------

A, B, C = 1, 2, 4
X, Y, Z = A, B, C


def test_binate_covering_simple_feasible():
    rows = [(Y, X), (Z, 0)]  # picking x requires y; z satisfies the second row
    solution = solve_binate_covering(rows, 3)
    assert solution is not None
    assert is_feasible(rows, solution)


def test_binate_covering_respects_initial_selection():
    rows = [(B, A)]
    solution = solve_binate_covering(rows, 2, initial=A)
    assert solution is not None
    assert is_feasible(rows, solution)


def test_binate_covering_empty_clause_set():
    """No rows: everything is feasible and minimisation drops every column."""
    solution = solve_binate_covering([], 3)
    assert solution == 0
    assert is_feasible([], solution)
    # an explicit initial selection is also already feasible and minimises away
    assert solve_binate_covering([], 3, initial=A) == 0


def test_binate_covering_no_columns():
    assert solve_binate_covering([], 0) == 0


def test_binate_covering_single_positive_literal_rows_are_implications():
    """Rows are implication clauses: a pure-positive row (ones x) is
    satisfied by the *empty* selection (no selected 0-column), it does not
    force x.  Mandatory columns are the caller's job (the ``initial``
    selection plus the ``solution & mandatory`` check in the heuristics
    layer)."""
    rows = [(X, 0)]
    assert is_feasible(rows, 0)
    assert solve_binate_covering(rows, 2, initial=0) == 0
    # starting from everything selected, minimisation still drops to empty
    assert solve_binate_covering(rows, 2) == 0


def test_binate_covering_single_negative_literal_bans_the_column():
    """A row (zeros x) with no positive literal: x can never stay selected."""
    rows = [(0, X)]
    solution = solve_binate_covering(rows, 2)  # default initial selects all
    assert solution is not None
    assert not solution & X
    assert is_feasible(rows, solution)
    assert not is_feasible(rows, X)
    assert not is_feasible(rows, X | Y)


def test_binate_covering_unsatisfiable_for_the_greedy_repair():
    """Instances where the repair moves oscillate return None.

    (ones b, zeros a) (a needs b) plus (zeros b) (b banned): from any
    selection containing a, move 1 adds b, move 2 removes b, forever -- the
    iteration cap trips and the solver reports no solution even though the
    empty selection is trivially feasible.  This pins the *heuristic* nature
    of the solver; callers must tolerate None on feasible instances.
    """
    rows = [(B, A), (0, B)]
    assert solve_binate_covering(rows, 2, initial=A) is None
    assert solve_binate_covering(rows, 2) is None
    # ... although the instance itself is feasible:
    assert is_feasible(rows, 0)
    assert is_feasible(rows, B) is False  # b stays banned
    assert solve_binate_covering(rows, 2, initial=0) == 0


def test_binate_covering_mutual_dependency_survives_minimisation():
    """a needs b and b needs a: starting from {a}, move 1 pulls b in, and
    neither column can be dropped by the minimisation pass (removing either
    violates the other's row)."""
    rows = [(B, A), (A, B)]  # a needs b, b needs a
    solution = solve_binate_covering(rows, 2, initial=A)
    assert solution == A | B
    assert is_feasible(rows, solution)


def test_binate_covering_breaks_ties_in_column_name_order():
    """The columns were once named inv0, inv1, ...: both repair moves break
    ties in that name order (``inv10`` before ``inv2``), and minimisation
    runs in column order."""
    c0, c2, c10 = 1, 1 << 2, 1 << 10
    # c0 needs c2 or c10; each of those needs c0, so c0 stays
    rows = [(c2 | c10, c0), (c0, c2), (c0, c10)]
    assert solve_binate_covering(rows, 11, initial=c0) == c0 | c10
    # from all three selected, minimisation meets c2 before c10
    assert solve_binate_covering(rows, 11, initial=c0 | c2 | c10) == c0 | c10
    # move 2: c10 needs c2, and neither may stay.  Move 1 adds c2; then
    # c2 and c10 offend alike and c10 goes first, so c2 can go too.  Had c2
    # gone first, c10 would pull it back in until the iteration cap.
    rows = [(c2, c10), (0, c2 | c10)]
    assert solve_binate_covering(rows, 11, initial=c10) == 0


def test_binate_covering_row_satisfaction_semantics():
    """A selected 1-column wins, else no selected 0-column."""
    rows = [(B, A)]
    assert is_feasible(rows, B)
    assert is_feasible(rows, A | B)
    assert is_feasible(rows, 0)
    assert not is_feasible(rows, A)
