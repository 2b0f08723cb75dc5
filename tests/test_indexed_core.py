"""Equivalence suite: the indexed core against legacy Marking semantics.

The indexed core (``repro.petrinet.indexed``) is the dense substrate every
marking-walking layer now runs on.  These tests pin its semantics to the
original name-based implementation: reference routines reimplement the seed's
dict-based firing rule and full-scan enabled set, and random firing walks over
the paper's figure nets must agree step by step -- markings, enabled sets
(full-scan *and* incremental), ECS enumeration, and reachability graphs.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, List, Tuple

import pytest

from repro.apps import paper_nets
from repro.apps.workloads import random_multi_source_net
from repro.petrinet.analysis import StructuralAnalysis, compute_ecs_partition, enabled_ecss
from repro.petrinet.indexed import IndexedNet, MarkingStore
from repro.petrinet.marking import Marking
from repro.petrinet.net import PetriNet
from repro.petrinet.reachability import build_reachability_graph
from repro.scheduling.ep import find_schedule


# ---------------------------------------------------------------------------
# reference implementation (the seed's semantics, kept independent of the
# production code paths so regressions in either representation surface)
# ---------------------------------------------------------------------------


def reference_is_enabled(net: PetriNet, transition: str, marking: Marking) -> bool:
    return all(marking[place] >= weight for place, weight in net.pre[transition].items())


def reference_fire(net: PetriNet, transition: str, marking: Marking) -> Marking:
    assert reference_is_enabled(net, transition, marking)
    deltas: Dict[str, int] = {}
    for place, weight in net.pre[transition].items():
        deltas[place] = deltas.get(place, 0) - weight
    for place, weight in net.post[transition].items():
        deltas[place] = deltas.get(place, 0) + weight
    return marking.add(deltas)


def reference_enabled(net: PetriNet, marking: Marking) -> List[str]:
    return sorted(t for t in net.transitions if reference_is_enabled(net, t, marking))


def reference_reachability(
    net: PetriNet, max_nodes: int
) -> Tuple[List[Marking], List[Tuple[int, str, int]]]:
    """Seed-style BFS; returns markings in discovery order plus edge triples."""
    initial = Marking(net.initial_tokens)
    markings = [initial]
    index_of = {initial: 0}
    edges: List[Tuple[int, str, int]] = []
    frontier = deque([0])
    while frontier:
        index = frontier.popleft()
        for transition in reference_enabled(net, markings[index]):
            successor = reference_fire(net, transition, markings[index])
            existing = index_of.get(successor)
            if existing is not None:
                edges.append((index, transition, existing))
                continue
            if len(markings) >= max_nodes:
                continue
            index_of[successor] = len(markings)
            markings.append(successor)
            edges.append((index, transition, len(markings) - 1))
            frontier.append(len(markings) - 1)
    return markings, edges


def all_figure_nets() -> List[PetriNet]:
    return [
        paper_nets.figure_4a(),
        paper_nets.figure_4b(),
        paper_nets.figure_5(),
        paper_nets.figure_6(),
        paper_nets.figure_7(3),
        paper_nets.figure_7(4),
        paper_nets.figure_8(),
        paper_nets.simple_pipeline(4, 2),
    ]


# ---------------------------------------------------------------------------
# random firing equivalence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("net", all_figure_nets(), ids=lambda net: net.name)
def test_random_firing_sequences_agree(net: PetriNet):
    rng = random.Random(hash(net.name) & 0xFFFF)
    indexed = net.indexed()
    marking = net.initial_marking
    vec = indexed.initial_vec
    enabled_inc = frozenset(indexed.enabled_vec(vec))
    for _step in range(60):
        # identical views of the current marking
        assert indexed.vec_of_marking(marking) == vec
        assert indexed.marking_of_vec(vec) == marking
        # identical enabled sets: reference scan, dense scan, incremental
        expected = reference_enabled(net, marking)
        assert [indexed.transition_names[t] for t in indexed.enabled_vec(vec)] == expected
        assert sorted(indexed.transition_names[t] for t in enabled_inc) == expected
        assert net.enabled_transitions(marking) == expected
        if not expected:
            break
        transition = rng.choice(expected)
        tid = indexed.transition_index[transition]
        marking = reference_fire(net, transition, marking)
        vec = indexed.fire_vec(tid, vec)
        enabled_inc = indexed.enabled_after(enabled_inc, tid, vec)


@pytest.mark.parametrize("net", all_figure_nets(), ids=lambda net: net.name)
def test_facade_fire_agrees_with_reference(net: PetriNet):
    rng = random.Random(1234)
    marking = net.initial_marking
    for _step in range(40):
        enabled = reference_enabled(net, marking)
        if not enabled:
            break
        transition = rng.choice(enabled)
        assert net.is_enabled(transition, marking)
        fired = net.fire(transition, marking)
        assert fired == reference_fire(net, transition, marking)
        marking = fired


@pytest.mark.parametrize("net", all_figure_nets(), ids=lambda net: net.name)
def test_enabled_ecss_agree(net: PetriNet):
    """The search's dense ECS scan (``enabled_ecs_ids`` over the enabled
    transition IDs) and the name-keyed ``enabled_ecss`` agree with the
    reference along a random walk."""
    rng = random.Random(99)
    partition = compute_ecs_partition(net)
    analysis = StructuralAnalysis.of(net)
    inet = net.indexed()
    marking = net.initial_marking
    for _step in range(40):
        expected = [
            ecs for ecs in partition if reference_is_enabled(net, min(ecs), marking)
        ]
        enabled_tids = inet.enabled_vec(inet.vec_of_marking(marking))
        dense = [analysis.partition[ecs_id] for ecs_id in analysis.enabled_ecs_ids(enabled_tids)]
        assert dense == expected
        assert enabled_ecss(net, marking) == expected
        enabled = reference_enabled(net, marking)
        if not enabled:
            break
        marking = reference_fire(net, rng.choice(enabled), marking)


# ---------------------------------------------------------------------------
# reachability equivalence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("net", all_figure_nets(), ids=lambda net: net.name)
def test_reachability_graph_agrees(net: PetriNet):
    max_nodes = 300
    markings, edges = reference_reachability(net, max_nodes)
    graph = build_reachability_graph(net, max_nodes=max_nodes)
    assert [node.marking for node in graph.nodes] == markings
    got_edges = [
        (node.index, transition, target)
        for node in graph.nodes
        for transition, target in sorted(node.successors.items())
    ]
    assert sorted(got_edges) == sorted(edges)


# ---------------------------------------------------------------------------
# interning and cache invalidation
# ---------------------------------------------------------------------------


def test_marking_store_interns_vectors():
    store = MarkingStore()
    first = store.intern((0, 1, 2))
    second = store.intern((0, 1, 2))
    assert first is second
    assert len(store) == 1
    store.intern((5,))
    assert len(store) == 2
    assert (5,) in store


def test_indexed_view_is_cached_and_invalidated():
    net = paper_nets.figure_8()
    first = net.indexed()
    assert net.indexed() is first  # cached while the structure is unchanged
    net.add_place("extra", 1)
    second = net.indexed()
    assert second is not first
    assert "extra" in second.place_index
    # adjacency reflects the new arc immediately
    net.add_transition("drain")
    net.add_arc("extra", "drain")
    assert net.postset_of_place("extra") == {"drain": 1}
    assert net.enabled_transitions(net.initial_marking).count("drain") == 1


def test_direct_mutation_with_invalidate_caches():
    net = paper_nets.figure_8()
    net.indexed()  # populate the cache
    # simulate the linker/compiler style of surgery: raw dict mutation
    del net.pre["e"]["p3"]
    net.pre["e"]["p2"] = 1
    net.invalidate_caches()
    marking = Marking({"p2": 1})
    assert "e" in net.enabled_transitions(marking)
    assert net.postset_of_place("p2") == {"d": 1, "e": 1}


# ---------------------------------------------------------------------------
# scheduler integration: counters and schedule equivalence
# ---------------------------------------------------------------------------


def test_find_schedule_rebuilds_stale_analysis():
    net = paper_nets.figure_5()
    analysis = StructuralAnalysis.of(net)
    # structural mutation after the analysis was built: transition IDs shift
    net.add_place("extra")
    net.add_transition("zz_extra")
    net.add_arc("extra", "zz_extra")
    result = find_schedule(net, "a", analysis=analysis, raise_on_failure=True)
    assert result.success
    result.schedule.validate()


def test_set_initial_tokens_refreshes_indexed_snapshot():
    """A token change starts a new snapshot, like every sanctioned mutator:
    its initial vector and the analysis memoised on it hold the tokens."""
    net = paper_nets.figure_5()
    indexed = net.indexed()
    analysis = StructuralAnalysis.of(net)
    net.set_initial_tokens("p0", 3)
    fresh = net.indexed()
    assert fresh is not indexed
    assert fresh.initial_vec == fresh.vec_of_marking(net.initial_marking)
    assert net.initial_marking["p0"] == 3
    assert StructuralAnalysis.of(net) is not analysis
    assert StructuralAnalysis.of(net).degrees["p0"] == 3
    assert analysis.degrees["p0"] == 1


# ---------------------------------------------------------------------------
# the structural analysis memo: one per snapshot, read by every search
# ---------------------------------------------------------------------------


def test_structural_analysis_is_memoised_on_the_snapshot():
    net = paper_nets.figure_8()
    analysis = StructuralAnalysis.of(net)
    assert StructuralAnalysis.of(net) is analysis
    assert net.indexed().analysis_cache["structural_analysis"] is analysis


def _add_gate(net: PetriNet) -> None:
    net.add_place("gate")


def _add_sink(net: PetriNet) -> None:
    net.add_transition("zz_sink")


def _feed_p3(net: PetriNet) -> None:
    net.add_arc("d", "p3", 2)


def _more_tokens(net: PetriNet) -> None:
    net.set_initial_tokens("p2", 2)


def _rewire(net: PetriNet) -> None:
    del net.pre["e"]["p3"]
    net.pre["e"]["p2"] = 1
    net.invalidate_caches()


@pytest.mark.parametrize(
    "mutate, reflects",
    [
        (_add_gate, lambda analysis: "gate" in analysis.degrees),
        (_add_sink, lambda analysis: frozenset({"zz_sink"}) in analysis.partition),
        (_feed_p3, lambda analysis: analysis.degrees["p3"] == 3),
        (_more_tokens, lambda analysis: analysis.degrees["p2"] == 2),
        (_rewire, lambda analysis: analysis.ecs_of("e") == frozenset({"d", "e"})),
    ],
    ids=["add_place", "add_transition", "add_arc", "set_initial_tokens", "invalidate_caches"],
)
def test_every_sanctioned_mutation_starts_a_new_analysis(mutate, reflects):
    net = paper_nets.figure_8()
    held = StructuralAnalysis.of(net)
    assert not reflects(held)
    mutate(net)
    fresh = StructuralAnalysis.of(net)
    assert fresh is not held
    assert reflects(fresh)
    assert StructuralAnalysis.of(net) is fresh


def test_scheduling_every_source_builds_the_analysis_once(monkeypatch):
    net = random_multi_source_net(4, 30, seed=7)
    sources = net.uncontrollable_sources()
    assert len(sources) == 4
    builds = []
    partition = compute_ecs_partition

    def counted(built_net):
        builds.append(built_net)
        return partition(built_net)

    monkeypatch.setattr("repro.petrinet.analysis.compute_ecs_partition", counted)
    for source in sources:
        find_schedule(net, source)
    assert builds == [net]


@pytest.mark.parametrize("tokens", [2, 3])
def test_an_analysis_held_across_a_token_change_is_not_read(tokens):
    """Figure 8 with more tokens on ``p2``: a search handed the analysis of
    the old initial marking prunes by Definition 4.5 with the new place
    degrees, exactly as a search of a net built with those tokens does."""
    net = paper_nets.figure_8()
    held = StructuralAnalysis.of(net)
    net.set_initial_tokens("p2", tokens)
    assert held.degrees["p2"] == 1
    stale = find_schedule(net, "a", analysis=held)
    built = paper_nets.figure_8()
    built.set_initial_tokens("p2", tokens)
    fresh = find_schedule(built, "a")
    assert stale.tree_nodes == fresh.tree_nodes
    assert stale.counters.as_dict() == fresh.counters.as_dict()
    assert stale.failure_reason == fresh.failure_reason
    assert fresh.failure_reason is not None


def test_search_counters_are_populated():
    net = paper_nets.figure_5()
    result = find_schedule(net, "a", raise_on_failure=True)
    counters = result.counters
    assert counters.nodes_expanded > 0
    assert counters.fires > 0
    assert counters.enabled_scans >= 1
    assert counters.interned_markings > 0
    assert set(counters.as_dict()) == {
        "nodes_expanded",
        "fires",
        "enabled_scans",
        "enabled_updates",
        "interned_markings",
    }


@pytest.mark.parametrize(
    "net,source",
    [
        (paper_nets.figure_5(), "a"),
        (paper_nets.figure_5(), "d"),
        (paper_nets.figure_6(), "a"),
        (paper_nets.figure_7(3), "a"),
        (paper_nets.figure_8(), "a"),
    ],
    ids=["fig5-a", "fig5-d", "fig6-a", "fig7-a", "fig8-a"],
)
def test_schedules_still_validate_against_facade_semantics(net: PetriNet, source: str):
    result = find_schedule(net, source, raise_on_failure=True)
    schedule = result.schedule
    assert schedule is not None
    schedule.validate()  # properties 1-5 are checked with facade fire/enabled
    # every edge agrees with the reference firing rule
    for node_index, transition, target in schedule.edges():
        node = schedule.node(node_index)
        assert reference_is_enabled(net, transition, node.marking)
        assert reference_fire(net, transition, node.marking) == schedule.node(target).marking
