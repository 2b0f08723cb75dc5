"""Tests for the Petri net kernel: structure, firing, analysis, reachability."""

from __future__ import annotations

import warnings

import pytest

from repro.apps import paper_nets
from repro.petrinet.analysis import (
    ChoiceKind,
    StructuralAnalysis,
    all_place_degrees,
    classify_choice_place,
    compute_ecs_partition,
    ecs_of_transition,
    enabled_ecss,
    is_unique_choice_net,
    place_degree,
)
from repro.petrinet.marking import Marking
from repro.petrinet.net import ArcError, PetriNet, PetriNetError, SourceKind, merge_nets
from repro.petrinet.reachability import (
    build_reachability_graph,
    find_deadlocks,
    is_bounded,
    reachable_markings,
)


# ---------------------------------------------------------------------------
# construction and firing
# ---------------------------------------------------------------------------


def simple_net() -> PetriNet:
    net = PetriNet(name="simple")
    net.add_place("p1", 1)
    net.add_place("p2")
    net.add_transition("t")
    net.add_arc("p1", "t")
    net.add_arc("t", "p2", 2)
    return net


def test_duplicate_names_rejected():
    net = PetriNet()
    net.add_place("x")
    with pytest.raises(PetriNetError):
        net.add_place("x")
    with pytest.raises(PetriNetError):
        net.add_transition("x")
    net.add_transition("t")
    with pytest.raises(PetriNetError):
        net.add_place("t")


def test_arc_validation():
    net = simple_net()
    with pytest.raises(ArcError):
        net.add_arc("p1", "p2")
    with pytest.raises(ArcError):
        net.add_arc("t", "t")
    with pytest.raises(ArcError):
        net.add_arc("p1", "t", 0)


def test_firing_semantics():
    net = simple_net()
    m0 = net.initial_marking
    assert net.is_enabled("t", m0)
    m1 = net.fire("t", m0)
    assert m1 == Marking({"p2": 2})
    assert not net.is_enabled("t", m1)
    with pytest.raises(PetriNetError):
        net.fire("t", m1)


def test_fire_sequence_and_fireability():
    net = paper_nets.figure_5()
    assert net.is_fireable_sequence(["a", "b", "c"])
    assert not net.is_fireable_sequence(["b"])
    final = net.fire_sequence(["a", "b", "c"])
    assert final == net.initial_marking


def test_weighted_arcs_accumulate():
    net = PetriNet()
    net.add_place("p", 3)
    net.add_transition("t")
    net.add_arc("p", "t")
    net.add_arc("p", "t", 2)
    assert net.weight_pt("p", "t") == 3


def test_copy_and_merge():
    net = simple_net()
    clone = net.copy("clone")
    assert clone.stats() == net.stats()
    other = PetriNet(name="other")
    other.add_place("q", 1)
    other.add_transition("u")
    other.add_arc("q", "u")
    merged = merge_nets([net, other])
    assert set(merged.places) == {"p1", "p2", "q"}
    assert set(merged.transitions) == {"t", "u"}
    with pytest.raises(PetriNetError):
        merge_nets([net, net])


def test_merge_nets_refuses_a_place_named_like_a_transition_of_another_net():
    first = PetriNet(name="first")
    first.add_place("x")
    second = PetriNet(name="second")
    second.add_transition("x")
    with pytest.raises(PetriNetError, match="'x'"):
        merge_nets([first, second])
    with pytest.raises(PetriNetError, match="'x'"):
        merge_nets([second, first])


def test_merge_nets_identify_moves_arcs_and_tokens():
    net = PetriNet()
    net.add_place("keep", 1)
    net.add_place("gone", 2)
    for transition in ("t", "u"):
        net.add_transition(transition)
    net.add_arc("t", "keep")
    net.add_arc("t", "gone", 2)
    net.add_arc("gone", "u", 3)
    first = net.indexed()
    merged = merge_nets([net], identify={"gone": "keep"})
    assert "gone" not in merged.places and merged.initial_tokens == {"keep": 3}
    assert merged.post["t"] == {"keep": 3} and merged.pre["u"] == {"keep": 3}
    assert merged.preset_of_place("keep") == {"t": 3}
    assert merged.postset_of_place("keep") == {"u": 3}
    assert merged.indexed().place_names == ("keep",)
    # the source net is copied, not changed
    assert net.post["t"] == {"keep": 1, "gone": 2} and net.initial_tokens == {"keep": 1, "gone": 2}
    assert net.indexed() is first
    # the target may come from a later net, as a reader's process may precede its writer's
    reader = PetriNet()
    reader.add_place("in")
    reader.add_place("ctl", 1)
    reader.add_transition("read")
    reader.add_arc("in", "read")
    reader.add_arc("ctl", "read")
    writer = PetriNet()
    writer.add_place("out")
    writer.add_transition("write")
    writer.add_arc("write", "out")
    linked = merge_nets([reader, writer], identify={"in": "out"})
    assert list(linked.places) == ["ctl", "out"]
    # a renamed arc follows the transition's other arcs
    assert list(linked.pre["read"].items()) == [("ctl", 1), ("out", 1)]
    assert linked.preset_of_place("out") == {"write": 1}
    assert linked.postset_of_place("out") == {"read": 1}


def test_source_and_classification_queries():
    net = paper_nets.figure_4a()
    assert set(net.source_transitions()) == {"a", "b"}
    assert net.uncontrollable_sources() == ["a", "b"]
    assert net.controllable_sources() == []
    assert net.transitions["a"].is_uncontrollable_source


def test_to_dot_contains_all_nodes():
    net = simple_net()
    dot = net.to_dot()
    for name in ["p1", "p2", "t"]:
        assert name in dot


def test_validate_detects_dangling_reference():
    net = simple_net()
    net.initial_tokens["ghost"] = 1
    with pytest.raises(PetriNetError):
        net.validate()


# ---------------------------------------------------------------------------
# structural analysis
# ---------------------------------------------------------------------------


def test_ecs_partition_of_figure_8():
    net = paper_nets.figure_8()
    partition = compute_ecs_partition(net)
    as_sets = {frozenset(ecs) for ecs in partition}
    assert frozenset({"b", "c"}) in as_sets
    assert frozenset({"a"}) in as_sets
    assert frozenset({"d"}) in as_sets
    assert frozenset({"e"}) in as_sets
    # the partition covers every transition exactly once
    all_transitions = [t for ecs in partition for t in ecs]
    assert sorted(all_transitions) == sorted(net.transitions)


def test_ecs_of_transition_and_enabled_ecss():
    net = paper_nets.figure_8()
    assert ecs_of_transition(net, "b") == frozenset({"b", "c"})
    m = net.fire("a", net.initial_marking)
    enabled = {frozenset(e) for e in enabled_ecss(net, m)}
    assert frozenset({"b", "c"}) in enabled
    assert frozenset({"a"}) in enabled  # sources are always enabled


def test_place_degree_definition():
    net = paper_nets.figure_8()
    # p3: input weight 1 (from c), output weight 2 (to e) -> degree 2
    assert place_degree(net, "p3") == 2
    assert place_degree(net, "p1") == 1
    degrees = all_place_degrees(net)
    assert degrees["p3"] == 2


def test_place_degree_respects_initial_marking():
    net = PetriNet()
    net.add_place("p", 5)
    net.add_transition("t")
    net.add_arc("p", "t")
    assert place_degree(net, "p") == 5


def test_choice_place_classification_equal_choice(divisors_system):
    net = divisors_system.net
    analysis = StructuralAnalysis.of(net)
    # the while/if condition places are equal choices
    equal_choices = [
        p
        for p in net.choice_places()
        if classify_choice_place(net, p, analysis.partition) is ChoiceKind.EQUAL
    ]
    assert equal_choices, "the divisors net must contain equal choice places"


def test_divisors_net_is_unique_choice(divisors_system):
    assert is_unique_choice_net(divisors_system.net)


def test_structural_analysis_bundle(divisors_system):
    analysis = StructuralAnalysis.of(divisors_system.net)
    assert analysis.uncontrollable == {"src.divisors.in"}
    ecs = analysis.ecs_of("src.divisors.in")
    assert analysis.source_ecs_ids == {analysis.partition.index(ecs)}


# ---------------------------------------------------------------------------
# reachability
# ---------------------------------------------------------------------------


def test_reachability_of_figure_5():
    net = paper_nets.figure_5()
    graph = build_reachability_graph(net, max_nodes=200, max_tokens_per_place=2)
    assert net.initial_marking in graph.index_of
    # firing a then b then c returns to the initial marking: the graph has a cycle
    assert len(graph) > 1


def test_reachability_respects_node_budget():
    net = paper_nets.figure_4a()  # sources make the graph infinite
    graph = build_reachability_graph(net, max_nodes=50)
    assert len(graph) <= 50
    assert not graph.complete


def source_fed_net() -> PetriNet:
    net = PetriNet(name="fed")
    net.add_place("p")
    net.add_transition("src", source_kind=SourceKind.UNCONTROLLABLE)
    net.add_arc("src", "p")
    return net


def test_is_bounded_detects_unbounded_place():
    assert not is_bounded(source_fed_net(), bound=3, max_nodes=50)


def test_is_bounded_warns_when_a_cut_exploration_finds_no_violation():
    """50 markings of a source-fed place never reach 1000 tokens: the True
    is undecided, and the warning names the net, the budget and the bound."""
    with pytest.warns(RuntimeWarning, match=r"'fed' undecided.*max_nodes=50.*bound=1000"):
        assert is_bounded(source_fed_net(), bound=1000, max_nodes=50)


def test_is_bounded_is_silent_when_its_verdict_is_exact():
    """A violation found, even by a cut exploration, and a True from a
    complete exploration are both proofs: no warning."""
    ring = PetriNet(name="ring")
    ring.add_place("p", 2)
    ring.add_place("q")
    ring.add_transition("t")
    ring.add_transition("u")
    ring.add_arc("p", "t")
    ring.add_arc("t", "q")
    ring.add_arc("q", "u")
    ring.add_arc("u", "p")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert build_reachability_graph(ring, max_nodes=3).complete
        assert is_bounded(ring, bound=2, max_nodes=3)
        assert not is_bounded(ring, bound=1, max_nodes=3)
        assert not is_bounded(source_fed_net(), bound=3, max_nodes=50)


def test_find_deadlocks_reports_terminal_markings():
    net = PetriNet()
    net.add_place("p", 1)
    net.add_place("q")
    net.add_transition("t")
    net.add_arc("p", "t")
    net.add_arc("t", "q")
    deadlocks = find_deadlocks(net, max_nodes=10)
    assert Marking({"q": 1}) in deadlocks


def test_reachable_markings_wrapper():
    net = paper_nets.figure_5()
    markings = reachable_markings(net, max_nodes=100, max_tokens_per_place=1)
    assert net.initial_marking in markings


def test_structural_analysis_enabled_ecss_detects_stale_snapshot():
    """The enabled_ecss fast path must not trust a snapshot the sanctioned
    mutators (add_place/add_arc) made stale: they bump the version but leave
    the old IndexedNet object in place."""
    from repro.petrinet.analysis import StructuralAnalysis

    net = paper_nets.figure_5()
    analysis = StructuralAnalysis.of(net)
    before = [sorted(ecs) for ecs in analysis.enabled_ecss(net.initial_marking)]
    assert ["a"] in before  # the source is enabled while unguarded
    net.add_place("gate")
    net.add_arc("gate", "a")  # now 'a' needs a token the marking lacks
    after = [sorted(ecs) for ecs in analysis.enabled_ecss(net.initial_marking)]
    truth = [
        sorted(ecs)
        for ecs in StructuralAnalysis.of(net).enabled_ecss(net.initial_marking)
    ]
    assert after == truth
    assert ["a"] not in after


def test_bounded_lru_eviction_and_recency():
    from repro.util import BoundedLRU

    lru = BoundedLRU(2)
    lru.put("a", 1)
    lru.put("b", 2)
    assert lru.get("a") == 1  # refreshes recency: 'b' is now the stalest
    lru.put("c", 3)
    assert "b" not in lru and "a" in lru and "c" in lru
    assert len(lru) == 2
    with pytest.raises(ValueError):
        BoundedLRU(0)
