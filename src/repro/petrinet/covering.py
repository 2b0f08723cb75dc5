"""Heuristic binate covering solver.

Section 5.5.2 reduces the choice of a *candidate invariant* (a subset of the
T-invariant base whose sum satisfies the necessary fireability condition of
Theorem 5.3) to a binate covering problem:

* columns correspond to the invariants of the base;
* each row encodes, for a pseudo-enabled ECS and an offending invariant ``b``
  (an invariant whose process appears but which contains no transition of the
  ECS), the clause "either do not pick ``b``, or also pick some invariant that
  contains a transition of the ECS".

A feasible solution is a subset of columns such that every row either has no
selected column with a ``0`` entry, or has at least one selected column with a
``1`` entry.  We implement the classical greedy feasible-solution heuristic
referenced in the paper ([10]): repeatedly satisfy violated rows by adding the
column that fixes the most of them, or by removing an offending column when no
addition helps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple


# Cell values: 1 means "selecting this column satisfies the row",
# 0 means "selecting this column violates the row unless some 1-column is
# also selected", None ('-') means "irrelevant".
Cell = Optional[int]


@dataclass
class BinateCoveringProblem:
    """A binate covering instance over named columns."""

    columns: List[str]
    rows: List[Dict[str, Cell]] = field(default_factory=list)
    # optional per-column weight (to be minimised); defaults to 1
    weights: Dict[str, int] = field(default_factory=dict)

    def add_row(self, entries: Dict[str, int]) -> None:
        """Add a row; ``entries`` maps column name -> 0 or 1."""
        unknown = set(entries) - set(self.columns)
        if unknown:
            raise ValueError(f"row refers to unknown columns: {sorted(unknown)}")
        self.rows.append(dict(entries))

    def weight(self, column: str) -> int:
        return self.weights.get(column, 1)

    def row_satisfied(self, row: Dict[str, Cell], selection: Set[str]) -> bool:
        """A row is satisfied if some selected column has a 1, or no selected
        column has a 0."""
        has_positive = any(row.get(col) == 1 for col in selection)
        if has_positive:
            return True
        has_negative = any(row.get(col) == 0 for col in selection)
        return not has_negative

    def is_feasible(self, selection: Set[str]) -> bool:
        return all(self.row_satisfied(row, selection) for row in self.rows)


def solve_binate_covering(
    problem: BinateCoveringProblem,
    *,
    initial: Optional[Set[str]] = None,
    max_iterations: int = 1000,
) -> Optional[Set[str]]:
    """Find a feasible (heuristically small) solution, or ``None``.

    The search starts from ``initial`` (default: all columns selected, the
    most permissive candidate invariant) and alternates two repair moves on
    violated rows:

    1. add a column whose selection satisfies the largest number of currently
       violated rows without breaking satisfied unate rows;
    2. otherwise remove a selected column that appears with a ``0`` in some
       violated row.

    After reaching feasibility, a greedy minimisation pass removes columns
    whose removal keeps the solution feasible (preferring heavier columns).

    Internally the solver runs on dense integer bitmasks: columns get dense
    IDs, each row collapses to a ``(ones, zeros)`` mask pair, the selection is
    one integer, and "row satisfied" is two bitwise ANDs.
    """
    columns = list(problem.columns)
    column_id = {column: i for i, column in enumerate(columns)}
    ones_masks: List[int] = []
    zeros_masks: List[int] = []
    for row in problem.rows:
        ones = 0
        zeros = 0
        for column, value in row.items():
            if value == 1:
                ones |= 1 << column_id[column]
            elif value == 0:
                zeros |= 1 << column_id[column]
        ones_masks.append(ones)
        zeros_masks.append(zeros)
    n_rows = len(ones_masks)

    def mask_of(names: Set[str]) -> int:
        mask = 0
        for name in names:
            bit = column_id.get(name)
            if bit is not None:
                mask |= 1 << bit
        return mask

    def feasible(mask: int) -> bool:
        for i in range(n_rows):
            if not (mask & ones_masks[i]) and (mask & zeros_masks[i]):
                return False
        return True

    selection = (1 << len(columns)) - 1 if initial is None else mask_of(set(initial))

    for _ in range(max_iterations):
        violated = [
            i
            for i in range(n_rows)
            if not (selection & ones_masks[i]) and (selection & zeros_masks[i])
        ]
        if not violated:
            break
        # Move 1: try adding a column with a 1 in as many violated rows as possible.
        gain: Dict[str, int] = {}
        for i in violated:
            remaining = ones_masks[i] & ~selection
            while remaining:
                bit = remaining & -remaining
                column = columns[bit.bit_length() - 1]
                gain[column] = gain.get(column, 0) + 1
                remaining ^= bit
        if gain:
            best = max(sorted(gain), key=lambda c: (gain[c], -problem.weight(c)))
            selection |= 1 << column_id[best]
            continue
        # Move 2: remove an offending column (one with a 0 in a violated row).
        offenders: Dict[str, int] = {}
        for i in violated:
            remaining = zeros_masks[i] & selection
            while remaining:
                bit = remaining & -remaining
                column = columns[bit.bit_length() - 1]
                offenders[column] = offenders.get(column, 0) + 1
                remaining ^= bit
        if not offenders:
            return None
        worst = max(sorted(offenders), key=lambda c: (offenders[c], problem.weight(c)))
        selection &= ~(1 << column_id[worst])
    else:
        return None

    if not feasible(selection):
        return None

    # Minimisation pass: drop columns that are not needed.
    selected_names = [
        column for column in columns if selection & (1 << column_id[column])
    ]
    for column in sorted(selected_names, key=lambda c: -problem.weight(c)):
        candidate = selection & ~(1 << column_id[column])
        if feasible(candidate):
            selection = candidate
    return {column for column in columns if selection & (1 << column_id[column])}


def build_candidate_invariant_problem(
    invariant_names: Sequence[str],
    pseudo_enabled_rows: Sequence[Tuple[str, FrozenSet[str]]],
) -> BinateCoveringProblem:
    """Build the covering problem of Section 5.5.2.

    Parameters
    ----------
    invariant_names:
        Names (column ids) of the invariants in the base.
    pseudo_enabled_rows:
        One entry per (offending invariant, set of invariants containing a
        transition of the pseudo-enabled ECS).  The offending invariant gets a
        0 cell, the helpers get 1 cells.
    """
    problem = BinateCoveringProblem(columns=list(invariant_names))
    for offender, helpers in pseudo_enabled_rows:
        row: Dict[str, int] = {offender: 0}
        for helper in helpers:
            if helper != offender:
                row[helper] = 1
        problem.add_row(row)
    return problem
