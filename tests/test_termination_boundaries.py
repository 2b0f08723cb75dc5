"""Pruning boundaries of the EP search: the node budget and the place bound.

The boundary tests pin ``max_nodes`` and ``place_bound`` at the values
around the smallest one at which a schedule exists: one below fails and
says which cut the search, the minimum and one above schedule alike.
Every boundary search runs under the whole-search oracle of
:mod:`fold_oracle`: the search must reproduce its twin deciding Definition
4.5 by the exact walk, byte for byte.  The seeded sweep over 200 generated
nets and the edge cases the generators are unlikely to hit run the same
oracle in ``tests/test_batched_ep.py``.
"""

from __future__ import annotations

import random

import pytest

from fold_oracle import searched_and_walked
from repro.apps import paper_nets
from repro.apps.workloads import random_marked_graph, random_multi_source_net
from repro.scheduling.serialize import schedule_to_json

#: (builder, source, minimal max_nodes, minimal place_bound at which a
#: schedule exists) -- behavioural pins of the figure nets themselves.
MINIMAL = [
    (paper_nets.figure_5, "a", 4, 1),
    (paper_nets.figure_6, "a", 6, 2),
]
IDS = ["figure_5", "figure_6"]

BUDGET_REASON = (
    "node budget of {} tree nodes exhausted before an entering point reaching "
    "the initial marking was found; schedulability is undecided"
)
BOUND_REASON = (
    "pre-defined place bound ({} tokens per place) pruned the search before an "
    "entering point reaching the initial marking was found; schedulability is "
    "undecided"
)


@pytest.mark.parametrize("builder,source,nodes,bound", MINIMAL, ids=IDS)
def test_minimal_node_budget_is_a_sharp_boundary(builder, source, nodes, bound):
    """max_nodes == minimal schedules; minimal - 1 fails on the budget."""
    below = searched_and_walked(builder(), source, max_nodes=nodes - 1)
    assert below.failure_reason == BUDGET_REASON.format(nodes - 1)
    at = searched_and_walked(builder(), source, max_nodes=nodes)
    assert at.success and at.tree_nodes == nodes
    above = searched_and_walked(builder(), source, max_nodes=nodes + 1)
    # the extra slack changes nothing once an entering point exists
    assert schedule_to_json(at.schedule) == schedule_to_json(above.schedule)


@pytest.mark.parametrize("builder,source,nodes,bound", MINIMAL, ids=IDS)
def test_backends_agree_at_every_boundary_value(builder, source, nodes, bound):
    """Both knobs at once, around both boundaries: at or above both minima
    one schedule; below one, a failure naming the budget when the tree
    filled it and the place bound otherwise."""
    schedules, reasons = set(), set()
    for max_nodes in (nodes - 1, nodes, nodes + 1):
        for place_bound in (bound - 1, bound, bound + 1):
            result = searched_and_walked(
                builder(), source, max_nodes=max_nodes, place_bound=place_bound
            )
            if max_nodes >= nodes and place_bound >= bound:
                schedules.add(schedule_to_json(result.schedule))
            elif result.tree_nodes >= max_nodes:
                assert result.failure_reason == BUDGET_REASON.format(max_nodes)
                reasons.add("budget")
            else:
                assert place_bound < bound
                assert result.failure_reason == BOUND_REASON.format(place_bound)
                reasons.add("bound")
    assert len(schedules) == 1 and reasons == {"budget", "bound"}


def test_backends_agree_across_budget_sweep_on_random_nets():
    """Wider sweep: generated nets, every small node budget."""
    for seed in range(6):
        rng = random.Random(seed)
        nets = [
            ("multi", random_multi_source_net(2, 3, rng=random.Random(seed))),
            ("marked", random_marked_graph(4, rng=random.Random(seed))),
        ]
        for _label, net in nets:
            sources = net.uncontrollable_sources()
            if not sources:
                continue
            source = sources[rng.randrange(len(sources))]
            for max_nodes in range(1, 25):
                searched_and_walked(net, source, max_nodes=max_nodes)


def test_node_budget_boundary_is_on_the_node_index():
    """max_nodes prunes a node index >= max_nodes, exactly: at 1 the source
    child (index 1) is pruned unexpanded, at 2 it is expanded and its
    lookahead probe, which takes index 2, is pruned."""
    net = paper_nets.figure_5()
    pruned = searched_and_walked(net, "a", max_nodes=1)
    expanded = searched_and_walked(net, "a", max_nodes=2)
    # root (0) and the source child (1) exist either way
    assert pruned.tree_nodes == expanded.tree_nodes == 2
    assert pruned.counters.enabled_scans == 0
    assert expanded.counters.enabled_scans == 1
    assert expanded.counters.fires == pruned.counters.fires + 1
    assert pruned.failure_reason == BUDGET_REASON.format(1)
    assert expanded.failure_reason == BUDGET_REASON.format(2)
