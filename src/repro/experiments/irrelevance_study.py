"""Irrelevance criterion vs. fixed place bounds (the Figure 7 argument).

Section 4.4 argues that pruning the scheduling search with pre-defined place
bounds (the approach of [13]) fails on the divider/multiplier family of
Figure 7 for any constant bound, while the irrelevance criterion (based on
place degrees and the marking history) finds the schedule.  This experiment
runs both pruning strategies (``SchedulerOptions.place_bound``) on the family
for several values of ``k`` and several candidate bounds and reports which
succeed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.apps.paper_nets import figure_7
from repro.scheduling.ep import SchedulerOptions, find_schedule


@dataclass
class IrrelevanceStudyRow:
    """Outcome of one (k, pruning strategy) combination."""

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
        # the irrelevance criterion (the paper's proposal), then pre-defined
        # uniform place bounds (the approach the paper argues against)
        strategies = [("irrelevance", None)]
        strategies += [(f"bound={bound}", bound) for bound in bounds]
        for condition, place_bound in strategies:
            result = find_schedule(
                net,
                "a",
                options=SchedulerOptions(max_nodes=max_nodes, place_bound=place_bound),
            )
            rows.append(
                IrrelevanceStudyRow(
                    k=k,
                    condition=condition,
                    success=result.success,
                    schedule_nodes=len(result.schedule) if result.schedule else 0,
                    tree_nodes=result.tree_nodes,
                    elapsed_seconds=result.elapsed_seconds,
                )
            )
    return rows


def format_irrelevance_study(rows: Sequence[IrrelevanceStudyRow]) -> str:
    lines = ["Irrelevance criterion vs. fixed place bounds (Figure 7 family)"]
    for row in rows:
        status = "schedule found" if row.success else "no schedule"
        lines.append(
            f"  k={row.k:<2} {row.condition:<12} {status:<16} "
            f"schedule={row.schedule_nodes:<4} tree={row.tree_nodes}"
        )
    return "\n".join(lines)
