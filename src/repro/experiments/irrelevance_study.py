"""Irrelevance criterion vs. fixed place bounds (the Figure 7 argument).

Section 4.4 argues that pruning the scheduling search with pre-defined place
bounds (the approach of [13]) fails on the divider/multiplier family of
Figure 7 for any constant bound, while the irrelevance criterion (based on
place degrees and the marking history) finds the schedule.  This experiment
runs both termination conditions on the family for several values of ``k``
and several candidate bounds and reports which succeed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.apps.paper_nets import figure_7
from repro.petrinet.reachability import reachable_marking_matrix
from repro.scheduling.ep import SchedulerOptions, find_schedule
from repro.scheduling.termination import (
    CompositeCondition,
    IrrelevanceCriterion,
    NodeBudget,
    PlaceBoundCondition,
)


@dataclass
class IrrelevanceStudyRow:
    """Outcome of one (k, termination condition) combination."""

    k: int
    condition: str  # "irrelevance" or "bound=<n>"
    success: bool
    schedule_nodes: int
    tree_nodes: int
    elapsed_seconds: float


def run_irrelevance_study(
    *,
    ks: Sequence[int] = (3, 4, 5),
    bounds: Sequence[int] = (2, 3, 4),
    max_nodes: int = 20_000,
) -> List[IrrelevanceStudyRow]:
    """Schedule the Figure 7 net under both pruning strategies."""
    rows: List[IrrelevanceStudyRow] = []
    for k in ks:
        net = figure_7(k)
        # irrelevance criterion (the paper's proposal)
        irrelevance = CompositeCondition(
            conditions=[IrrelevanceCriterion.for_net(net), NodeBudget(max_nodes=max_nodes)]
        )
        result = find_schedule(
            net,
            "a",
            options=SchedulerOptions(termination=irrelevance, max_nodes=max_nodes),
        )
        rows.append(
            IrrelevanceStudyRow(
                k=k,
                condition="irrelevance",
                success=result.success,
                schedule_nodes=len(result.schedule) if result.schedule else 0,
                tree_nodes=result.tree_nodes,
                elapsed_seconds=result.elapsed_seconds,
            )
        )
        # pre-defined uniform place bounds (the approach the paper argues against)
        for bound in bounds:
            condition = CompositeCondition(
                conditions=[
                    PlaceBoundCondition.uniform(net, bound),
                    NodeBudget(max_nodes=max_nodes),
                ]
            )
            result = find_schedule(
                net,
                "a",
                options=SchedulerOptions(termination=condition, max_nodes=max_nodes),
            )
            rows.append(
                IrrelevanceStudyRow(
                    k=k,
                    condition=f"bound={bound}",
                    success=result.success,
                    schedule_nodes=len(result.schedule) if result.schedule else 0,
                    tree_nodes=result.tree_nodes,
                    elapsed_seconds=result.elapsed_seconds,
                )
            )
    return rows


@dataclass
class PruningSweepRow:
    """Batched pruning statistics of the Figure 7 reachable set for one ``k``."""

    k: int
    markings: int
    # markings irrelevant (Definition 4.5 (b)+(c)) w.r.t. some marking
    # discovered earlier in the BFS -- an upper bound on what the
    # history-based criterion can prune, since BFS discovery order
    # over-approximates ancestry
    irrelevant_wrt_earlier: int
    # per-bound count of markings violating the uniform place bound
    bound_violations: Dict[int, int]


def run_pruning_sweep(
    *,
    ks: Sequence[int] = (3, 4, 5),
    bounds: Sequence[int] = (2, 3, 4),
    max_nodes: int = 4000,
) -> List[PruningSweepRow]:
    """Evaluate the pruning conditions over whole reachable sets at once.

    This is the batched counterpart of :func:`run_irrelevance_study`:
    instead of replaying the scheduling search per condition, it materialises
    a bounded reachable set as one marking matrix (one row per marking) and
    answers every termination query with vectorized row reductions -- each
    uniform place bound is one masked comparison over the full sweep, and the
    irrelevance test runs once per candidate ancestor against *all* later
    rows simultaneously instead of once per (marking, ancestor) pair.
    """
    rows: List[PruningSweepRow] = []
    for k in ks:
        net = figure_7(k)
        inet = net.indexed()
        matrix = reachable_marking_matrix(net, max_nodes=max_nodes)
        criterion = IrrelevanceCriterion.for_net(net)
        irrelevant = np.zeros(matrix.shape[0], dtype=bool)
        for ancestor_index in range(matrix.shape[0] - 1):
            later = matrix[ancestor_index + 1 :]
            mask = criterion.irrelevant_rows(inet, later, matrix[ancestor_index])
            irrelevant[ancestor_index + 1 :] |= mask
        violations: Dict[int, int] = {}
        for bound in bounds:
            condition = PlaceBoundCondition.uniform(net, bound)
            violations[bound] = int(condition.violation_rows(inet, matrix).sum())
        rows.append(
            PruningSweepRow(
                k=k,
                markings=int(matrix.shape[0]),
                irrelevant_wrt_earlier=int(irrelevant.sum()),
                bound_violations=violations,
            )
        )
    return rows


def format_pruning_sweep(rows: Sequence[PruningSweepRow]) -> str:
    lines = ["Batched pruning sweep over the Figure 7 reachable sets"]
    for row in rows:
        bounds = ", ".join(
            f"bound={bound}: {count}" for bound, count in sorted(row.bound_violations.items())
        )
        lines.append(
            f"  k={row.k:<2} markings={row.markings:<6} "
            f"irrelevant(earlier)={row.irrelevant_wrt_earlier:<6} {bounds}"
        )
    return "\n".join(lines)


def format_irrelevance_study(rows: Sequence[IrrelevanceStudyRow]) -> str:
    lines = ["Irrelevance criterion vs. fixed place bounds (Figure 7 family)"]
    for row in rows:
        status = "schedule found" if row.success else "no schedule"
        lines.append(
            f"  k={row.k:<2} {row.condition:<12} {status:<16} "
            f"schedule={row.schedule_nodes:<4} tree={row.tree_nodes}"
        )
    return "\n".join(lines)
