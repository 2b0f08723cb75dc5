"""The per-node state EP keeps incrementally along its DFS path.

Three pieces replace per-node rescans in ``repro.scheduling.ep``:

* the :class:`~repro.scheduling.heuristics.CycleTracker`, which keeps the
  invariant-guided heuristic's promising vector on push/pop;
* each tree node's over-degree places (``TreeNode.over``), derived from its
  parent's;
* the folded termination verdict, decided on a node or on a lookahead probe
  without creating a probe node.

Each is checked against the full recomputation it replaces, on random
walks over weighted choice nets and marked graphs.  The incremental
irrelevance checker itself is pinned in ``tests/test_kernel.py``.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.apps import paper_nets
from repro.apps.workloads import random_choice_net, random_marked_graph
from repro.petrinet.analysis import StructuralAnalysis
from repro.scheduling.ep import SchedulerOptions, SchedulingTree, _EPSearch
from repro.scheduling.heuristics import InvariantGuidedOrdering
from repro.scheduling.termination import (
    CompositeCondition,
    IrrelevanceCriterion,
    MaxDepthCondition,
    NodeBudget,
    UserBoundCondition,
    default_termination,
)

FAST = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

KINDS = st.sampled_from(["choice", "marked"])
SEEDS = st.integers(0, 10_000)
# a walk step: 0 pops the path top, anything else fires an enabled transition
STEPS = st.lists(st.integers(0, 7), max_size=40)


def _net(kind: str, seed: int):
    rng = random.Random(seed)
    if kind == "choice":
        return random_choice_net(rng.randint(1, 3), rng=rng)
    return random_marked_graph(rng.randint(2, 5), rng=rng)


def _walk(tree: SchedulingTree, steps, visit) -> None:
    """A random DFS walk from a fresh root; ``visit(top)`` after every move."""
    inet = tree.inet
    path = [tree.add_root(inet.initial_vec)]
    tree.push(path[0])
    visit(path[0])
    for step in steps:
        top = path[-1]
        enabled = sorted(tree.enabled_of(top))
        if (step == 0 or not enabled) and len(path) > 1:
            tree.pop(path.pop())
        elif enabled:
            tid = enabled[step % len(enabled)]
            child = tree.add_child(top, tid, inet.fire_vec(tid, tree.vec_of(top)))
            tree.push(child)
            path.append(child)
        visit(path[-1])


# ---------------------------------------------------------------------------
# the cycle tracker
# ---------------------------------------------------------------------------


@FAST
@given(kind=KINDS, seed=SEEDS, steps=STEPS)
def test_cycle_tracker_matches_the_promising_vector_on_random_walks(kind, seed, steps):
    net = _net(kind, seed)
    analysis = StructuralAnalysis.of(net)
    heuristic = InvariantGuidedOrdering(net, analysis, "src")
    assume(heuristic.candidate_invariant)
    tree = SchedulingTree(net)
    tree.cycle = heuristic.cycle_tracker(tree.inet.transition_index)

    def visit(_top):
        vector = heuristic.promising_vector(tree.path_firings())
        for transition in net.transitions:
            expected = vector.get(transition, 0) > 0
            assert tree.cycle.promising(frozenset({transition})) == expected
        for ecs in analysis.partition:
            expected = any(vector.get(t, 0) > 0 for t in ecs)
            assert tree.cycle.promising(ecs) == expected

    _walk(tree, steps, visit)


@FAST
@given(
    counts=st.lists(
        st.one_of(st.integers(1, 4), st.integers(2**63, 2**65)), min_size=1, max_size=5
    ),
    steps=st.lists(st.integers(-1, 4), max_size=80),
)
def test_cycle_tracker_is_exact_for_counts_beyond_int64(counts, steps):
    net = paper_nets.figure_5()
    heuristic = InvariantGuidedOrdering(net, StructuralAnalysis.of(net), "a")
    names = sorted(net.transitions)[: len(counts)]
    heuristic._candidate = dict(zip(names, counts))
    index = net.indexed().transition_index
    tracker = heuristic.cycle_tracker(index)
    pushed = []
    for step in steps:
        if step < 0:
            if pushed:
                tracker.pop(index[pushed.pop()])
        else:
            pushed.append(names[step % len(names)])
            tracker.push(index[pushed[-1]])
        firings = {name: pushed.count(name) for name in set(pushed)}
        vector = heuristic.promising_vector(firings)
        for name in net.transitions:
            assert tracker.promising(frozenset({name})) == (vector.get(name, 0) > 0)


# ---------------------------------------------------------------------------
# over-degree places
# ---------------------------------------------------------------------------


@FAST
@given(kind=KINDS, seed=SEEDS)
def test_every_node_carries_its_over_degree_places(kind, seed):
    net = _net(kind, seed)
    search = _EPSearch(net, "src", SchedulerOptions(max_nodes=2_000))
    search.run()
    degrees = [search.analysis.degrees.get(name, 0) for name in search.inet.place_names]
    assert len(search.tree.nodes) > 1
    for node in search.tree.nodes:
        scan = tuple(p for p, count in enumerate(node.vec) if count > degrees[p])
        assert node.over == scan


def test_a_termination_without_irrelevance_tracks_no_over_degree_places():
    net = paper_nets.figure_5()
    search = _EPSearch(
        net, "a", SchedulerOptions(termination=NodeBudget(max_nodes=200))
    )
    search.run()
    assert search._fold is not None and search._fold.irrelevance is None
    assert all(node.over == () for node in search.tree.nodes)


# ---------------------------------------------------------------------------
# the folded verdict
# ---------------------------------------------------------------------------


def _termination(name: str, net):
    irrelevance = IrrelevanceCriterion.for_net(net)
    if name == "default":
        return default_termination(net)
    if name == "channel-bounds":
        bounds = {place: 1 for place in sorted(net.places)[::2]}
        return CompositeCondition(
            [irrelevance, UserBoundCondition(bounds=bounds), NodeBudget(200_000)]
        )
    if name == "max-depth":
        return CompositeCondition([irrelevance, MaxDepthCondition(3), NodeBudget(200_000)])
    return CompositeCondition([irrelevance, NodeBudget(max_nodes=6)])


@FAST
@given(
    kind=KINDS,
    seed=SEEDS,
    name=st.sampled_from(["default", "channel-bounds", "max-depth", "node-budget"]),
    steps=STEPS,
)
def test_folded_verdict_equals_holds_on_a_real_probe_node(kind, seed, name, steps):
    net = _net(kind, seed)
    termination = _termination(name, net)
    search = _EPSearch(
        net, "src", SchedulerOptions(termination=termination)
    )
    assert search._fold is not None and not search._fold.extra
    tree = search.tree
    inet = tree.inet

    def visit(top):
        assert search._node_holds(top) == termination.holds(tree, top)
        node = tree.nodes[top]
        for tid in sorted(tree.enabled_of(top)):
            vec = tree.store.intern(inet.fire_vec(tid, node.vec))
            folded = search._probe_holds(node, tid, vec)
            probe = tree.add_child(top, tid, vec)
            try:
                assert folded == termination.holds(tree, probe)
            finally:
                tree.nodes.pop()
                node.children.pop()

    _walk(tree, steps, visit)
