"""Heuristic binate covering solver.

Section 5.5.2 reduces the choice of a *candidate invariant* (a subset of the
T-invariant base whose sum satisfies the necessary fireability condition of
Theorem 5.3) to a binate covering problem:

* columns correspond to the invariants of the base, in basis order;
* each row encodes, for a pseudo-enabled ECS and an offending invariant ``b``
  (an invariant whose process appears but which contains no transition of the
  ECS), the clause "either do not pick ``b``, or also pick some invariant that
  contains a transition of the ECS".

Column ``i`` is bit ``1 << i``: a row is a pair of masks ``(ones, zeros)``
(the columns whose selection satisfies it, and those whose selection
violates it unless a ``ones`` column is also selected), and a selection is
one mask.  A feasible selection satisfies every row: it has a bit in
``ones`` or none in ``zeros``.  We implement the classical greedy
feasible-solution heuristic referenced in the paper ([10]): repeatedly
satisfy violated rows by adding the column that fixes the most of them, or
by removing an offending column when no addition helps.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator, Optional, Sequence, Tuple

#: a row of the covering problem: its ``(ones, zeros)`` column masks
Row = Tuple[int, int]


def is_feasible(rows: Sequence[Row], selection: int) -> bool:
    """True when ``selection`` satisfies every row: some selected column has
    a 1 in it, or no selected column has a 0.

    >>> is_feasible([(0b10, 0b01)], 0b01), is_feasible([(0b10, 0b01)], 0b11)
    (False, True)
    """
    return all(selection & ones or not selection & zeros for ones, zeros in rows)


def _columns(mask: int) -> Iterator[int]:
    """The columns of the bits set in ``mask``."""
    while mask:
        bit = mask & -mask
        yield bit.bit_length() - 1
        mask ^= bit


def _most_counted(counts: Counter) -> int:
    """The column with the highest count.  Ties go to the column whose
    number sorts first as a string (``10`` before ``2``): the order of the
    names ``inv<i>`` the candidate invariants were first chosen under, which
    keeps every candidate as it was."""
    return max(sorted(counts, key=str), key=counts.__getitem__)


def solve_binate_covering(
    rows: Sequence[Row],
    columns: int,
    *,
    initial: Optional[int] = None,
    max_iterations: int = 1000,
) -> Optional[int]:
    """Find a feasible (heuristically small) selection of ``columns``
    columns, or ``None``.

    The search starts from ``initial`` (default: all columns selected, the
    most permissive candidate invariant) and alternates two repair moves on
    violated rows:

    1. add the column with a ``1`` in the most violated rows;
    2. otherwise remove the selected column with a ``0`` in the most
       violated rows.

    After reaching feasibility, a greedy minimisation pass removes, in
    column order, each column whose removal keeps the selection feasible.

    >>> needs_each_other = [(0b10, 0b01), (0b01, 0b10)]  # 0 needs 1, 1 needs 0
    >>> solve_binate_covering(needs_each_other, 2, initial=0b01)
    3
    """
    selection = (1 << columns) - 1 if initial is None else initial
    for _ in range(max_iterations):
        violated = [
            (ones, zeros) for ones, zeros in rows if not selection & ones and selection & zeros
        ]
        if not violated:
            break
        # Move 1: add a column with a 1 in as many violated rows as possible.
        gain: Counter = Counter()
        for ones, _zeros in violated:
            gain.update(_columns(ones & ~selection))
        if gain:
            selection |= 1 << _most_counted(gain)
            continue
        # Move 2: remove an offending column (one with a 0 in a violated row).
        offenders: Counter = Counter()
        for _ones, zeros in violated:
            offenders.update(_columns(zeros & selection))
        selection &= ~(1 << _most_counted(offenders))
    else:
        return None

    # Minimisation pass: drop columns that are not needed.
    for column in _columns(selection):
        candidate = selection & ~(1 << column)
        if is_feasible(rows, candidate):
            selection = candidate
    return selection
