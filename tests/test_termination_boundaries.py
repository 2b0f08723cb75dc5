"""Termination semantics of the EP search: depth and budget boundaries.

The boundary tests pin ``MaxDepthCondition`` and ``NodeBudget`` at the
values ``max_depth - 1`` / ``max_depth`` / ``max_depth + 1`` around the
minimal schedulable depth: a node *at* ``max_depth`` is kept, its children
are pruned.  Every boundary search runs under the whole-search oracle of
:mod:`fold_oracle`: the folded search must reproduce the same search forced
onto the ``termination.holds`` fallback, byte for byte.  The seeded sweep
over 200 generated nets and the edge cases the generators are unlikely to
hit run the same oracle in ``tests/test_batched_ep.py``.
"""

from __future__ import annotations

import random

import pytest

from fold_oracle import folded_and_fallback, init_fields, unfolded
from repro.apps import paper_nets
from repro.apps.workloads import random_marked_graph, random_multi_source_net
from repro.scheduling.serialize import schedule_to_json
from repro.scheduling.termination import (
    CompositeCondition,
    IrrelevanceCriterion,
    MaxDepthCondition,
    NodeBudget,
    PlaceBoundCondition,
    fold_termination,
)


def _depth_termination(net, max_depth, max_nodes=5000):
    return CompositeCondition(
        [
            IrrelevanceCriterion.for_net(net),
            MaxDepthCondition(max_depth),
            NodeBudget(max_nodes=max_nodes),
        ]
    )


def _run(net, source, max_depth, max_nodes=5000):
    return folded_and_fallback(
        net, source, _depth_termination(net, max_depth, max_nodes), max_nodes=max_nodes
    )


def test_unfolded_retypes_every_leaf_and_the_fold_leaves_them_extra():
    net = paper_nets.figure_7(3)
    termination = CompositeCondition(
        [
            IrrelevanceCriterion.for_net(net),
            PlaceBoundCondition.uniform(net, 3),
            MaxDepthCondition(4),
            NodeBudget(max_nodes=50),
        ]
    )
    copy = unfolded(termination)
    for original, leaf in zip(termination.conditions, copy.conditions):
        assert type(leaf).__mro__[1] is type(original)
        assert init_fields(leaf) == init_fields(original)
    # every leaf but the budget (folded as any NodeBudget) stays in extra
    assert fold_termination(copy, net.indexed()).extra == copy.conditions[:3]


# ---------------------------------------------------------------------------
# depth and budget boundaries
# ---------------------------------------------------------------------------

#: (builder, source, minimal max_depth at which a schedule exists) -- the
#: minimal depths are behavioural pins of the figure nets themselves.
MINIMAL_DEPTHS = [
    (paper_nets.figure_5, "a", 3),
    (paper_nets.figure_6, "a", 5),
]


@pytest.mark.parametrize(
    "builder,source,minimal", MINIMAL_DEPTHS, ids=["figure_5", "figure_6"]
)
def test_minimal_depth_is_a_sharp_boundary(builder, source, minimal):
    """depth == minimal schedules; minimal - 1 fails."""
    below = _run(builder(), source, minimal - 1)
    assert not below.success
    at = _run(builder(), source, minimal)
    assert at.success
    above = _run(builder(), source, minimal + 1)
    assert above.success
    # the depth-(minimal) and depth-(minimal+1) schedules agree: the
    # extra slack changes nothing once an entering point exists
    assert schedule_to_json(at.schedule) == schedule_to_json(above.schedule)


@pytest.mark.parametrize(
    "builder,source,minimal", MINIMAL_DEPTHS, ids=["figure_5", "figure_6"]
)
def test_backends_agree_at_every_boundary_value(builder, source, minimal):
    for max_depth in (minimal - 1, minimal, minimal + 1):
        _run(builder(), source, max_depth)


def test_backends_agree_across_depth_sweep_on_random_nets():
    """Wider sweep: generated nets, every small depth bound."""
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
            for max_depth in range(0, 12):
                _run(net, source, max_depth)


def test_max_depth_holds_uses_the_stored_depth_fast_path():
    """MaxDepthCondition.holds agrees with the O(depth) ancestor count."""
    from repro.scheduling.ep import SchedulingTree

    net = paper_nets.figure_5()
    tree = SchedulingTree(net)
    inet = tree.inet
    root = tree.add_root(inet.initial_vec)
    tid = inet.transition_index["a"]
    child = tree.add_child(root, tid, inet.fire_vec(tid, inet.initial_vec))
    assert tree.depth_of(root) == 0 and tree.depth_of(child) == 1
    for max_depth in (0, 1, 2):
        condition = MaxDepthCondition(max_depth)
        for node in (root, child):
            slow = sum(1 for _ in tree.ancestors_of(node)) > max_depth
            assert condition.holds(tree, node) == slow


def test_node_budget_boundary_is_on_the_node_index():
    """NodeBudget prunes node index >= max_nodes, exactly."""
    net = paper_nets.figure_5()
    termination = CompositeCondition(
        [IrrelevanceCriterion.for_net(net), NodeBudget(max_nodes=2)]
    )
    result = folded_and_fallback(net, "a", termination)
    assert not result.success
    # root (0) and the source child (1) exist; the budget stops index 2
    assert result.tree_nodes >= 2
