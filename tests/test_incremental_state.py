"""The per-node state EP keeps incrementally along its DFS path.

Three pieces replace per-node rescans in ``repro.scheduling.ep``:

* the :class:`~repro.scheduling.heuristics.CycleTracker`, which keeps the
  promising vector of the ECS ranking on push/pop;
* each tree node's over-degree places (``TreeNode.over``), derived from its
  parent's;
* the pruning verdict (``_EPSearch._prunes``), decided on a lookahead
  probe without creating a probe node.

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
from repro.scheduling.heuristics import CycleTracker, InvariantGuide
from repro.scheduling.termination import witnessed_by

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


def _path_firings(tree: SchedulingTree):
    """Firing count per transition along the tree's current DFS path."""
    names = tree.inet.transition_names
    firings = {}
    for node in tree._path[1:]:
        name = names[tree.nodes[node].tid]
        firings[name] = firings.get(name, 0) + 1
    return firings


@FAST
@given(kind=KINDS, seed=SEEDS, steps=STEPS)
def test_cycle_tracker_matches_the_promising_vector_on_random_walks(kind, seed, steps):
    net = _net(kind, seed)
    analysis = StructuralAnalysis.of(net)
    guide = InvariantGuide(net, analysis, "src")
    assume(guide.candidate)
    tree = SchedulingTree(net)
    index = tree.inet.transition_index
    # tracked groups: every single transition, then the ECSs by ECS ID
    singles = sorted(net.transitions)
    groups = [(index[t],) for t in singles]
    groups += [tuple(index[t] for t in sorted(ecs)) for ecs in analysis.partition]
    tree.cycle = CycleTracker(guide.candidate, index, groups)

    def visit(_top):
        vector = guide.promising_vector(_path_firings(tree))
        for group, transition in enumerate(singles):
            expected = vector.get(transition, 0) > 0
            assert tree.cycle.promising(group) == expected
        for ecs_id, ecs in enumerate(analysis.partition):
            expected = any(vector.get(t, 0) > 0 for t in ecs)
            assert tree.cycle.promising(len(singles) + ecs_id) == expected

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
    guide = InvariantGuide(net, StructuralAnalysis.of(net), "a")
    names = sorted(net.transitions)[: len(counts)]
    guide.candidate = dict(zip(names, counts))
    index = net.indexed().transition_index
    singles = sorted(net.transitions)
    tracker = CycleTracker(guide.candidate, index, [(index[t],) for t in singles])
    pushed = []
    for step in steps:
        if step < 0:
            if pushed:
                tracker.pop(index[pushed.pop()])
        else:
            pushed.append(names[step % len(names)])
            tracker.push(index[pushed[-1]])
        firings = {name: pushed.count(name) for name in set(pushed)}
        vector = guide.promising_vector(firings)
        for group, name in enumerate(singles):
            assert tracker.promising(group) == (vector.get(name, 0) > 0)


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
    """A pre-defined place bound replaces the irrelevance criterion: the
    search then keeps no checker and no over-degree places."""
    net = paper_nets.figure_5()
    search = _EPSearch(net, "a", SchedulerOptions(max_nodes=200, place_bound=3))
    search.run()
    assert search._incremental is None
    assert all(node.over == () for node in search.tree.nodes)


# ---------------------------------------------------------------------------
# the pruning verdict
# ---------------------------------------------------------------------------


def _options(name: str, net) -> SchedulerOptions:
    """One configuration per pruning check; ``channel-bounds`` declares a
    one-token bound on every other place of ``net``."""
    if name == "channel-bounds":
        for place in sorted(net.places)[::2]:
            net.places[place].bound = 1
    if name == "place-bound":
        return SchedulerOptions(place_bound=2)
    if name == "node-budget":
        return SchedulerOptions(max_nodes=6)
    return SchedulerOptions()


def _recomputed(search, index, vec, path) -> bool:
    """The pruning verdict from scratch: budget, declared bounds, then the
    place bound or Definition 4.5 by the walk over ``path``'s markings."""
    net, names = search.net, search.inet.place_names
    if index >= search.options.max_nodes:
        return True
    if any(
        net.places[name].bound is not None and count > net.places[name].bound
        for name, count in zip(names, vec)
    ):
        return True
    if search.options.place_bound is not None:
        return any(count > search.options.place_bound for count in vec)
    degrees = [search.analysis.degrees.get(name, 0) for name in names]
    return witnessed_by(degrees, vec, sum(vec), [(sum(a), a) for a in path])


@FAST
@given(
    kind=KINDS,
    seed=SEEDS,
    name=st.sampled_from(["default", "channel-bounds", "place-bound", "node-budget"]),
    steps=STEPS,
)
def test_probe_verdict_equals_the_verdict_on_a_real_probe_node(kind, seed, name, steps):
    """A probe is decided on its marking, at the index its child would get;
    the verdict equals the one on the child appended and pushed for real,
    and both equal the verdict recomputed from scratch."""
    net = _net(kind, seed)
    search = _EPSearch(net, "src", _options(name, net))
    tree = search.tree
    inet = tree.inet

    def path_vecs():
        return [tree.nodes[n].vec for n in tree._path]

    def verdict_of(index):
        node = tree.nodes[index]
        return search._prunes(index, node.vec, node.total_tokens, node.over)

    def visit(top):
        assert verdict_of(top) == _recomputed(search, top, tree.vec_of(top), path_vecs())
        node = tree.nodes[top]
        for tid in sorted(tree.enabled_of(top)):
            vec = tree.store.intern(inet.fire_vec(tid, node.vec))
            over = tree.over_after(node, tid, vec) if search._incremental else ()
            probed = search._prunes(
                len(tree.nodes), vec, node.total_tokens + inet.token_delta[tid], over
            )
            expected = _recomputed(search, len(tree.nodes), vec, path_vecs())
            child = tree.add_child(top, tid, vec)
            tree.push(child)
            try:
                assert probed == verdict_of(child) == expected
            finally:
                tree.pop(child)
                tree.nodes.pop()
                node.children.pop()

    _walk(tree, steps, visit)
