"""Tests for T-invariant computation and the binate covering heuristic."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import paper_nets
from repro.apps.workloads import random_marked_graph
from repro.petrinet.covering import (
    BinateCoveringProblem,
    build_candidate_invariant_problem,
    solve_binate_covering,
)
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
# binate covering
# ---------------------------------------------------------------------------


def test_binate_covering_simple_feasible():
    problem = BinateCoveringProblem(columns=["x", "y", "z"])
    problem.add_row({"x": 0, "y": 1})   # picking x requires y
    problem.add_row({"z": 1})            # z satisfies this row outright
    solution = solve_binate_covering(problem)
    assert solution is not None
    assert problem.is_feasible(solution)


def test_binate_covering_respects_initial_selection():
    problem = BinateCoveringProblem(columns=["a", "b"])
    problem.add_row({"a": 0, "b": 1})
    solution = solve_binate_covering(problem, initial={"a"})
    assert solution is not None
    assert problem.is_feasible(solution)


def test_binate_covering_unknown_column_rejected():
    problem = BinateCoveringProblem(columns=["a"])
    with pytest.raises(ValueError):
        problem.add_row({"nope": 1})


def test_build_candidate_invariant_problem():
    problem = build_candidate_invariant_problem(
        ["inv0", "inv1"], [("inv0", frozenset({"inv1"}))]
    )
    assert problem.columns == ["inv0", "inv1"]
    solution = solve_binate_covering(problem, initial={"inv0"})
    assert solution is not None
    # the offending invariant needs the helper to be feasible
    assert problem.is_feasible(solution)


# ---------------------------------------------------------------------------
# binate covering: bitmask-solver edge cases (pinning the PR 1 rewrite)
# ---------------------------------------------------------------------------


def test_binate_covering_empty_clause_set():
    """No rows: everything is feasible and minimisation drops every column."""
    problem = BinateCoveringProblem(columns=["a", "b", "c"])
    solution = solve_binate_covering(problem)
    assert solution == set()
    assert problem.is_feasible(solution)
    # an explicit initial selection is also already feasible and minimises away
    assert solve_binate_covering(problem, initial={"a"}) == set()


def test_binate_covering_no_columns():
    problem = BinateCoveringProblem(columns=[])
    assert solve_binate_covering(problem) == set()


def test_binate_covering_single_positive_literal_rows_are_implications():
    """Rows are implication clauses: a pure-positive row {x: 1} is satisfied
    by the *empty* selection (no selected 0-column), it does not force x.
    Mandatory columns are the caller's job (the ``initial`` selection plus
    the ``solution & mandatory`` check in the heuristics layer)."""
    problem = BinateCoveringProblem(columns=["x", "y"])
    problem.add_row({"x": 1})
    assert problem.row_satisfied({"x": 1}, set())
    assert solve_binate_covering(problem, initial=set()) == set()
    # starting from everything selected, minimisation still drops to empty
    assert solve_binate_covering(problem) == set()


def test_binate_covering_single_negative_literal_bans_the_column():
    """A row {x: 0} with no positive literal: x can never stay selected."""
    problem = BinateCoveringProblem(columns=["x", "y"])
    problem.add_row({"x": 0})
    solution = solve_binate_covering(problem)  # default initial selects all
    assert solution is not None
    assert "x" not in solution
    assert problem.is_feasible(solution)
    assert not problem.is_feasible({"x"})
    assert not problem.is_feasible({"x", "y"})


def test_binate_covering_unsatisfiable_for_the_greedy_repair():
    """Instances where the repair moves oscillate return None.

    {a: 0, b: 1} (a needs b) plus {b: 0} (b banned): from any selection
    containing a, move 1 adds b, move 2 removes b, forever -- the iteration
    cap trips and the solver reports no solution even though the empty
    selection is trivially feasible.  This pins the *heuristic* nature of
    the solver; callers must tolerate None on feasible instances.
    """
    problem = BinateCoveringProblem(columns=["a", "b"])
    problem.add_row({"a": 0, "b": 1})
    problem.add_row({"b": 0})
    assert solve_binate_covering(problem, initial={"a"}) is None
    assert solve_binate_covering(problem) is None
    # ... although the instance itself is feasible:
    assert problem.is_feasible(set())
    assert problem.is_feasible({"b"}) is False  # b stays banned
    assert solve_binate_covering(problem, initial=set()) == set()


def test_binate_covering_mutual_dependency_survives_minimisation():
    """a needs b and b needs a: starting from {a}, move 1 pulls b in, and
    neither column can be dropped by the minimisation pass (removing either
    violates the other's row)."""
    problem = BinateCoveringProblem(columns=["a", "b"])
    problem.add_row({"a": 0, "b": 1})    # a needs b
    problem.add_row({"b": 0, "a": 1})    # b needs a
    solution = solve_binate_covering(problem, initial={"a"})
    assert solution == {"a", "b"}
    assert problem.is_feasible(solution)


def test_binate_covering_weights_steer_the_repair_choice():
    """When two helpers fix the same violated row, the cheaper one is added."""

    def solve_with(weights):
        problem = BinateCoveringProblem(columns=["a", "b", "c"], weights=weights)
        problem.add_row({"a": 0, "b": 1, "c": 1})  # a needs b or c
        problem.add_row({"b": 0, "a": 1})          # interlocks: keep a around
        problem.add_row({"c": 0, "a": 1})
        return solve_binate_covering(problem, initial={"a"})

    assert solve_with({"b": 10}) == {"a", "c"}
    assert solve_with({"c": 10}) == {"a", "b"}


def test_binate_covering_row_satisfaction_semantics():
    """row_satisfied: a selected 1-column wins, else no selected 0-column."""
    problem = BinateCoveringProblem(columns=["a", "b"])
    row = {"a": 0, "b": 1}
    assert problem.row_satisfied(row, {"b"})
    assert problem.row_satisfied(row, {"a", "b"})
    assert problem.row_satisfied(row, set())
    assert not problem.row_satisfied(row, {"a"})
