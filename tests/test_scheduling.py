"""Tests for schedules, the search's pruning, the EP algorithm,
independence and runs, on the paper's figure nets and the FlowC systems."""

from __future__ import annotations

import random

import pytest

from fold_oracle import searched_and_walked
from golden_nets import GOLDEN_CASES
from repro.apps import paper_nets
from repro.apps.video import VideoAppConfig, build_video_network
from repro.apps.false_paths import (
    build_false_path_network,
    build_select_rewrite_network,
    link_with_unrolling,
    link_without_unrolling,
)
from repro.corpus.generator import generate_spec, make_unschedulable_spec
from repro.corpus.topologies import build_network
from repro.flowc.linker import link
from repro.petrinet.analysis import StructuralAnalysis, enabled_ecss
from repro.petrinet.marking import Marking
from repro.petrinet.net import PetriNet, SourceKind
from repro.scheduling.ep import (
    SchedulerOptions,
    SchedulingFailure,
    _EPSearch,
    find_all_schedules,
    find_schedule,
)
from repro.scheduling.heuristics import InvariantGuide
from repro.scheduling.independence import (
    are_mutually_independent,
    channel_size_report,
    combined_place_bounds,
    independence_report,
    is_independent_set,
)
from repro.scheduling.runs import RunError, build_run, check_executability, random_choice_resolver
from repro.scheduling.schedule import Schedule, ScheduleNode, ScheduleValidationError
from repro.scheduling.serialize import schedule_from_dict, schedule_to_dict
from repro.scheduling.termination import witnessed_by
from sim_counters import cases


# ---------------------------------------------------------------------------
# Schedule structure and validation
# ---------------------------------------------------------------------------


def test_hand_built_schedule_for_figure_5_validates():
    net = paper_nets.figure_5()
    schedule = Schedule(net=net, source_transition="a")
    n0 = schedule.add_node(net.initial_marking)
    n1 = schedule.add_node(net.fire("a", net.initial_marking))
    m2 = net.fire("b", n1.marking)
    n2 = schedule.add_node(m2)
    schedule.add_edge(n0.index, "a", n1.index)
    schedule.add_edge(n1.index, "b", n2.index)
    schedule.add_edge(n2.index, "c", n0.index)
    schedule.validate()
    assert schedule.is_single_source()
    assert [node.index for node in schedule.await_nodes()] == [0]
    assert schedule.place_bounds()["p1"] == 1
    assert schedule.involved_transitions() == {"a", "b", "c"}


def test_schedule_validation_rejects_bad_graphs():
    net = paper_nets.figure_5()
    schedule = Schedule(net=net, source_transition="a")
    n0 = schedule.add_node(net.initial_marking)
    n1 = schedule.add_node(net.fire("a", net.initial_marking))
    schedule.add_edge(n0.index, "a", n1.index)
    # n1 has no outgoing edge: property 5 violated
    with pytest.raises(ScheduleValidationError):
        schedule.validate()
    # wrong marking on an edge target
    bad = Schedule(net=net, source_transition="a")
    b0 = bad.add_node(net.initial_marking)
    b1 = bad.add_node(net.initial_marking)  # should be the post-a marking
    bad.add_edge(b0.index, "a", b1.index)
    bad.add_edge(b1.index, "b", b0.index)
    with pytest.raises(ScheduleValidationError):
        bad.validate()


def test_schedule_root_requirements():
    net = paper_nets.figure_5()
    schedule = Schedule(net=net, source_transition="a")
    n0 = schedule.add_node(net.fire("a", net.initial_marking))  # wrong root marking
    n1 = schedule.add_node(net.initial_marking)
    schedule.add_edge(n0.index, "b", n1.index)
    schedule.add_edge(n1.index, "a", n0.index)
    with pytest.raises(ScheduleValidationError):
        schedule.validate()


def _firing_validate(schedule: Schedule) -> None:
    """The five checks as ``validate`` made them before it moved onto plain
    dicts: ``PetriNet.is_enabled`` and ``PetriNet.fire`` on every edge."""
    net = schedule.net
    analysis = StructuralAnalysis.of(net)
    if not schedule.nodes:
        raise ScheduleValidationError("schedule has no nodes")
    root = schedule.root_node
    if root.marking != net.initial_marking:
        raise ScheduleValidationError("root node does not carry the initial marking")
    if root.out_degree != 1:
        raise ScheduleValidationError(f"root node must have out-degree 1, has {root.out_degree}")
    root_transition = next(iter(root.edges))
    if root_transition != schedule.source_transition:
        raise ScheduleValidationError(
            f"edge out of the root carries {root_transition!r}, expected {schedule.source_transition!r}"
        )
    for node in schedule.nodes:
        if not node.edges:
            raise ScheduleValidationError(f"node {node.index} has no outgoing edges")
        transitions = frozenset(node.edges)
        ecs = analysis.ecs_of(next(iter(transitions)))
        if transitions != ecs:
            raise ScheduleValidationError(
                f"node {node.index}: outgoing transitions {sorted(transitions)} are not the ECS {sorted(ecs)}"
            )
        for transition, target in node.edges.items():
            if not net.is_enabled(transition, node.marking):
                raise ScheduleValidationError(
                    f"node {node.index}: transition {transition!r} is not enabled at {node.marking.pretty()}"
                )
            if net.fire(transition, node.marking) != schedule.nodes[target].marking:
                raise ScheduleValidationError(
                    f"edge {node.index} --{transition}--> {target}: marking mismatch"
                )
    reachable = schedule.reachable_from_root()
    reaching = schedule.nodes_reaching_root()
    for node in schedule.nodes:
        if node.index not in reachable or node.index not in reaching:
            raise ScheduleValidationError(
                f"node {node.index} is not on a directed cycle through the root"
            )


def _validation_outcome(check, schedule: Schedule) -> str:
    try:
        check(schedule)
    except ScheduleValidationError as error:
        return str(error)
    return "valid"


def _mutants(schedule: Schedule, rng: random.Random, count: int):
    """``count`` copies of ``schedule``, each with one node marking, edge
    target or edge transition changed, one node's edges dropped, or an
    unreachable copy of a node added (some stay valid)."""
    places = sorted(schedule.net.places)
    transitions = sorted(schedule.net.transitions)
    for _ in range(count):
        nodes = [ScheduleNode(n.index, n.marking, dict(n.edges)) for n in schedule.nodes]
        node = rng.choice(nodes)
        change = rng.randrange(5)
        if change == 0:
            place = rng.choice(places)
            node.marking = node.marking.add({place: 1 if rng.random() < 0.5 or not node.marking[place] else -1})
        elif change == 1:
            transition = rng.choice(sorted(node.edges))
            node.edges[transition] = rng.randrange(len(nodes))
        elif change == 2:
            edges = list(node.edges.items())
            index = rng.randrange(len(edges))
            edges[index] = (rng.choice(transitions), edges[index][1])
            node.edges = dict(edges)
        elif change == 3:
            node.edges = {}
        else:
            nodes.append(ScheduleNode(len(nodes), node.marking, dict(node.edges)))
        yield Schedule(schedule.net, schedule.source_transition, nodes, schedule.root)


def _validation_cases():
    nets = [
        (paper_nets.figure_4a(), "a"),
        (paper_nets.figure_5(), "d"),
        (paper_nets.figure_6(), "a"),
        (paper_nets.figure_7(3), "a"),
        (paper_nets.figure_8(), "a"),
        (link(build_video_network(VideoAppConfig(3, 4))).net, None),
        (link(build_network(generate_spec(5))).net, None),
        (link(build_network(generate_spec(9))).net, None),
    ]
    for net, source in nets:
        for name in [source] if source else net.uncontrollable_sources():
            yield find_schedule(net, name, raise_on_failure=True).schedule


def test_validate_on_plain_dicts_matches_the_firing_checks():
    """Mutated schedules from the paper nets, the PFC system and corpus
    systems: the same verdict and message as ``is_enabled``/``fire``."""
    rng = random.Random(20261017)
    checks = ("valid", "no outgoing edges", "not the ECS", "is not enabled at",
              "marking mismatch", "not on a directed cycle")
    reached = set()
    for schedule in _validation_cases():
        assert _validation_outcome(Schedule.validate, schedule) == "valid"
        for mutant in _mutants(schedule, rng, 60):
            expected = _validation_outcome(_firing_validate, mutant)
            assert _validation_outcome(Schedule.validate, mutant) == expected
            reached.update(check for check in checks if check in expected)
    assert reached == set(checks)  # every check of properties 3-5 was reached


@pytest.mark.parametrize(
    "node, message",
    [
        (1, "edge 0 --a--> 1: marking mismatch"),
        (0, "root node does not carry the initial marking"),
    ],
)
def test_a_marking_naming_a_place_the_net_lacks_never_validates(node, message):
    """Figure 5's schedule rebuilt from its canonical form with
    ``["zz_ghost", 1]`` added to one node fails the check it fails on
    name-keyed dicts.  No marking vector has a column for the unknown place,
    so a conversion that dropped it would accept the schedule; the cache's
    replay validation relies on the refusal."""
    net = paper_nets.figure_5()
    data = schedule_to_dict(find_schedule(net, "a", raise_on_failure=True).schedule)
    data["nodes"][node]["marking"].append(["zz_ghost", 1])
    with pytest.raises(ScheduleValidationError) as error:
        schedule_from_dict(net, data).validate()
    assert str(error.value) == message


@pytest.mark.parametrize(
    "root, edges, message",
    [
        (None, {"zz": 2}, "node 1: 'zz' is not a transition of the net"),
        (None, {"b": 7}, "node 1: the edge 'b' leads to 7, not a node"),
        (None, {"b": -1}, "node 1: the edge 'b' leads to -1, not a node"),
        (9, None, "root 9 is not a node of the schedule"),
        (-3, None, "root -3 is not a node of the schedule"),
    ],
    ids=["unknown-transition", "target-past-the-end", "negative-target", "root-past-the-end", "negative-root"],
)
def test_a_malformed_schedule_is_refused_as_a_violation(root, edges, message):
    """Figure 5's schedule rebuilt from its canonical form with a root that
    is not a node, or with node 1's edge naming a transition the net lacks
    or a target that is not a node, fails validation with the error the
    contract names, not with a lookup error, and before the ECS check."""
    net = paper_nets.figure_5()
    data = schedule_to_dict(find_schedule(net, "a", raise_on_failure=True).schedule)
    if root is not None:
        data["root"] = root
    if edges is not None:
        data["nodes"][1]["edges"] = edges
    with pytest.raises(ScheduleValidationError) as error:
        schedule_from_dict(net, data).validate()
    assert str(error.value) == message


# ---------------------------------------------------------------------------
# Pruning: the irrelevance criterion and the bounds
# ---------------------------------------------------------------------------


def _irrelevant_after(net, markings):
    """Definition 4.5 of the last of ``markings`` against the others (its
    ancestors on one path), by the exact walk."""
    inet = net.indexed()
    degrees = StructuralAnalysis.of(net).degrees
    vecs = [inet.vec_of_marking(marking) for marking in markings]
    *ancestors, vec = vecs
    return witnessed_by(
        [degrees.get(name, 0) for name in inet.place_names],
        vec,
        sum(vec),
        [(sum(a), a) for a in ancestors],
    )


def test_irrelevance_criterion_detects_saturated_growth():
    net = paper_nets.figure_4a()  # degree of p1 is 2+2-1 = 3
    assert _irrelevant_after(net, [Marking({"p1": 3}), Marking({"p1": 5})])
    # growth from a non-saturated ancestor is not irrelevant
    assert not _irrelevant_after(net, [Marking({"p1": 1}), Marking({"p1": 2})])
    # equal markings are never classified irrelevant
    assert not _irrelevant_after(net, [Marking({"p1": 3}), Marking({"p1": 3})])


def test_place_bound_and_user_bound_conditions():
    """``place_bound`` prunes a marking above it on any place; a channel
    bound the specification declares prunes under every option."""
    net = paper_nets.figure_4a()
    search = _EPSearch(net, "a", SchedulerOptions(place_bound=2))
    vec_of = net.indexed().vec_of_marking
    assert not search._prunes(0, vec_of(Marking({"p1": 1})), 1, ())
    assert search._prunes(1, vec_of(Marking({"p1": 3})), 3, ())

    bounded_net = PetriNet()
    bounded_net.add_place("ch", bound=1, is_port=True)
    bounded_net.add_transition("t", source_kind=SourceKind.UNCONTROLLABLE)
    bounded_net.add_arc("t", "ch")
    for options in (SchedulerOptions(), SchedulerOptions(place_bound=5)):
        search = _EPSearch(bounded_net, "t", options)
        assert not search._prunes(0, (1,), 1, ())
        assert search._prunes(1, (2,), 2, ())
    # the declared bound is part of the specification, and it prunes before
    # the place bound: no failure names it
    for place_bound in (None, 5):
        result = searched_and_walked(
            bounded_net, "t", use_invariant_heuristic=False, place_bound=place_bound
        )
        assert result.failure_reason == (
            "no entering point reaching the initial marking was found"
        )


# ---------------------------------------------------------------------------
# The EP algorithm on the paper's nets
# ---------------------------------------------------------------------------


def test_figure_4a_has_ss_schedules_for_both_sources():
    net = paper_nets.figure_4a()
    results = find_all_schedules(net)
    assert set(results) == {"a", "b"}
    for result in results.values():
        assert result.success
        result.schedule.validate()
        assert result.schedule.is_single_source()


def test_figure_4b_has_no_single_source_schedules():
    net = paper_nets.figure_4b()
    for source in ("a", "b"):
        result = find_schedule(net, source, options=SchedulerOptions(max_nodes=500))
        assert not result.success
    with pytest.raises(SchedulingFailure):
        find_schedule(net, "a", options=SchedulerOptions(max_nodes=500), raise_on_failure=True)


def test_a_search_that_runs_out_of_candidates_keeps_its_reason():
    """Figure 4b fails at 3 tree nodes.  A budget of 3 holds that tree
    without refusing a node, so it runs the very search of the default and
    keeps its reason; a budget of 2 stops the third node and is named."""
    net = paper_nets.figure_4b()
    reason = "no entering point reaching the initial marking was found"
    counters = set()
    for options in (
        SchedulerOptions(),
        SchedulerOptions(max_nodes=4),
        SchedulerOptions(max_nodes=3),
    ):
        result = find_schedule(net, "a", options=options)
        assert (result.tree_nodes, result.failure_reason) == (3, reason)
        counters.add(tuple(result.counters.as_dict().items()))
    assert len(counters) == 1
    for max_nodes in (3, 4):
        result = searched_and_walked(net, "a", max_nodes=max_nodes)
        assert (result.tree_nodes, result.failure_reason) == (3, reason)
    result = searched_and_walked(net, "a", max_nodes=2)
    assert result.failure_reason == (
        "node budget of 2 tree nodes exhausted before an entering point "
        "reaching the initial marking was found; schedulability is undecided"
    )


def test_a_search_cut_by_max_nodes_names_the_budget():
    net = link(build_network(make_unschedulable_spec(20260808))).net
    results = [
        find_schedule(net, source, options=SchedulerOptions(max_nodes=500))
        for source in net.uncontrollable_sources()
    ]
    failed = [result for result in results if not result.success]
    assert failed
    for result in failed:
        assert result.tree_nodes == 500
        assert result.failure_reason == (
            "node budget of 500 tree nodes exhausted before an entering point "
            "reaching the initial marking was found; schedulability is undecided"
        )
        assert result.elapsed_seconds < 1.0


def test_a_search_cut_by_a_place_bound_names_the_bound():
    """Figure 7 (k=3) is schedulable, so a failure under a pre-defined bound
    proves nothing: a bound of 2 cuts the search after 4 tree nodes and the
    reason says so, while bounds 3 and 4 run into the budget first and keep
    its text.  The irrelevance criterion and a bound of 8 find a schedule."""
    net = paper_nets.figure_7(3)

    def search(place_bound):
        options = SchedulerOptions(max_nodes=2000, place_bound=place_bound)
        return find_schedule(net, "a", options=options)

    cut = search(2)
    assert cut.tree_nodes == 4
    assert cut.failure_reason == (
        "pre-defined place bound (2 tokens per place) pruned the search before an "
        "entering point reaching the initial marking was found; schedulability is "
        "undecided"
    )
    for bound in (3, 4):
        result = search(bound)
        assert result.tree_nodes == 2000
        assert result.failure_reason.startswith("node budget of 2000 tree nodes exhausted")
    assert search(None).success and search(8).success


def test_figure_5_schedules_are_independent_and_executable():
    net = paper_nets.figure_5()
    results = find_all_schedules(net, raise_on_failure=True)
    schedules = {source: result.schedule for source, result in results.items()}
    assert is_independent_set(list(schedules.values()))
    assert are_mutually_independent(schedules["a"], schedules["d"])
    run = build_run(schedules, ["a", "d", "a", "a", "d"])
    assert run.final_marking == net.initial_marking
    assert check_executability(schedules, [["a", "d", "d", "a"], ["d", "a"]])


def test_figure_6_schedules_interfere():
    net = paper_nets.figure_6()
    results = find_all_schedules(net, raise_on_failure=True)
    schedules = {source: result.schedule for source, result in results.items()}
    for schedule in schedules.values():
        assert len(schedule.await_nodes()) == 2
    assert not is_independent_set(list(schedules.values()))
    violations = independence_report(list(schedules.values()))
    assert violations and violations[0].place in {"p0", "p2", "p4"}
    # the interleaving a d is not executable (the paper's example)
    with pytest.raises(RunError):
        build_run(schedules, ["a", "d", "a", "d"])


def test_figure_7_schedulable_with_irrelevance_but_not_small_bounds():
    for k in (3, 4):
        net = paper_nets.figure_7(k)
        result = find_schedule(net, "a", raise_on_failure=True)
        result.schedule.validate()
        # a fires k*(k-1)... at least k times: many await nodes
        assert len(result.schedule.await_nodes()) >= k
        bounded = SchedulerOptions(max_nodes=2000, place_bound=2)
        failed = find_schedule(net, "a", options=bounded)
        assert not failed.success


def test_figure_8_schedule_matches_paper_walkthrough():
    net = paper_nets.figure_8()
    result = find_schedule(net, "a", raise_on_failure=True)
    schedule = result.schedule
    schedule.validate()
    # Figure 10(d): seven nodes, two await nodes, involves every transition
    assert len(schedule) == 7
    assert len(schedule.await_nodes()) == 2
    assert schedule.involved_transitions() == {"a", "b", "c", "d", "e"}
    assert schedule.place_bounds()["p3"] == 2


def test_single_source_constraint_excludes_other_uncontrollables():
    net = paper_nets.figure_5()
    result = find_schedule(net, "a", raise_on_failure=True)
    assert "d" not in result.schedule.involved_transitions()


def test_invariant_precheck_reports_unschedulable():
    net = PetriNet()
    net.add_place("p")
    net.add_transition("a", source_kind=SourceKind.UNCONTROLLABLE)
    net.add_arc("a", "p")  # tokens can never leave p: no invariant fires a
    result = find_schedule(net, "a")
    assert not result.success
    assert "T-invariant" in (result.failure_reason or "")


def test_find_schedule_validates_every_schedule_it_returns(monkeypatch):
    """A post-processed schedule missing one arm of a choice is never returned."""
    from repro.scheduling.ep import _EPSearch

    post_process = _EPSearch._post_process

    def drop_one_choice_edge(self, root):
        schedule = post_process(self, root)
        choice = next(node for node in schedule.nodes if len(node.edges) > 1)
        del choice.edges[max(choice.edges)]
        return schedule

    assert find_schedule(paper_nets.figure_8(), "a").success
    monkeypatch.setattr(_EPSearch, "_post_process", drop_one_choice_edge)
    with pytest.raises(ScheduleValidationError):
        find_schedule(paper_nets.figure_8(), "a")


def test_find_schedule_unknown_transition():
    net = paper_nets.figure_5()
    with pytest.raises(KeyError):
        find_schedule(net, "nope")


def test_schedule_channel_bounds_on_flowc_system(divisors_system, divisors_schedule):
    schedule = divisors_schedule
    schedule.validate()
    assert schedule.is_single_source()
    assert len(schedule.await_nodes()) == 1
    bounds = schedule.channel_bounds()
    # every environment port place stays at one token (unit-size channels)
    assert all(bound <= 1 for bound in bounds.values())
    report = channel_size_report([schedule])
    assert set(report) == set(bounds)
    combined = combined_place_bounds([schedule])
    assert combined[divisors_system.port_place_of[("divisors", "in")]] <= 1


def test_false_path_example_unrolled_vs_conservative():
    unrolled = link_with_unrolling(build_false_path_network())
    result = find_schedule(unrolled.net, "src.prodA.start", raise_on_failure=True)
    assert result.schedule is not None
    assert result.schedule.channel_bounds()[unrolled.channel_places["c0"]] <= 1

    conservative = link_without_unrolling(build_false_path_network())
    failed = find_schedule(
        conservative.net, "src.prodA.start", options=SchedulerOptions(max_nodes=800)
    )
    assert not failed.success


def test_select_rewrite_compiles_and_is_not_unique_choice():
    from repro.flowc.linker import link
    from repro.petrinet.analysis import is_unique_choice_net

    system = link(build_select_rewrite_network())
    assert not is_unique_choice_net(system.net)
    assert "src.prodA.start" in system.net.uncontrollable_sources()


# ---------------------------------------------------------------------------
# Heuristics
# ---------------------------------------------------------------------------


def _ranked_after_source(net, source, **options):
    """The ECSs ``_EPSearch._candidate_ecss`` ranks at the source's child,
    best first (non-source, then source), under ``SchedulerOptions(**options)``."""
    search = _EPSearch(net, source, SchedulerOptions(**options))
    tree, inet = search.tree, search.inet
    root = tree.add_root(inet.initial_vec)
    tid = inet.transition_index[source]
    child = tree.add_child(root, tid, inet.fire_vec(tid, inet.initial_vec))
    tree.push(root)
    tree.push(child)
    non_source, sources = search._candidate_ecss(child)
    return [search.analysis.partition[ecs_id] for ecs_id in non_source + sources]


def test_heuristic_orderings_agree_on_membership():
    net = paper_nets.figure_8()
    marking = net.fire("a", net.initial_marking)
    ecss = enabled_ecss(net, marking)
    for use_invariant_heuristic in (True, False):
        ordered = _ranked_after_source(
            net, "a", use_invariant_heuristic=use_invariant_heuristic
        )
        assert sorted(map(sorted, ordered)) == sorted(map(sorted, ecss))


def test_tie_break_puts_sources_last():
    ordered = _ranked_after_source(
        paper_nets.figure_8(), "a", use_invariant_heuristic=False
    )
    assert ordered[-1] == frozenset({"a"})


def test_ecs_ids_follow_sorted_transition_names():
    """The rank's last term, the ECS ID, is the sorted-name tie-break: the
    partition is in sorted-name order on every net the pins cover."""
    for net, _sources in _covering_cases():
        partition = StructuralAnalysis.of(net).partition
        names = [sorted(ecs) for ecs in partition]
        assert names == sorted(names)


def test_invariant_guided_ordering_prefers_promising_transitions():
    net = paper_nets.figure_8()
    guide = InvariantGuide(net, "a")
    assert guide.source_is_coverable()
    vector = guide.promising_vector({})
    assert vector.get("a", 0) >= 1
    after_cycle = guide.promising_vector({"a": 1, "b": 1, "d": 1})
    assert after_cycle  # guidance never collapses to nothing


def _rows_by_rescanning(guide):
    """The covering rows as ``_select_candidate_invariant`` built them before
    each ECS's helpers were computed once: every invariant rescanned for
    every (invariant, process, ECS) triple; column ``i`` is bit ``1 << i``."""
    rows = []
    process_of = {t: obj.process for t, obj in guide.net.transitions.items()}
    ecs_by_process = {}
    for ecs in StructuralAnalysis.of(guide.net).partition:
        proc = process_of.get(min(ecs))
        ecs_by_process.setdefault(proc, []).append(ecs)
    for column, invariant in enumerate(guide.base):
        processes_in_invariant = {process_of.get(t) for t in invariant}
        for proc in processes_in_invariant:
            if proc is None:
                continue
            for ecs in ecs_by_process.get(proc, []):
                if any(t in invariant for t in ecs):
                    continue
                helpers = sum(
                    1 << other
                    for other, other_inv in enumerate(guide.base)
                    if any(t in other_inv for t in ecs)
                )
                if helpers:
                    rows.append((helpers, 1 << column))
    return rows


def _covering_cases():
    for builder, sources in GOLDEN_CASES.values():
        net = builder()
        yield net, sources
    for _name, linked, sources, *_rest in cases():
        yield linked.net, sources
    for index in (1611, 7, 300, 1204, 2999):  # tree_1611: 64 invariants
        net = link(build_network(generate_spec(index))).net
        yield net, net.uncontrollable_sources()


def test_covering_rows_match_the_rescanning_builder():
    """Each ECS's helper mask, built once, gives the rows of the rescanning
    builder: the same rows in the same order, duplicates included, so the
    covering problem and the candidate invariant it selects are unchanged."""
    checked = 0
    for net, sources in _covering_cases():
        for source in sources:
            guide = InvariantGuide(net, source)
            rows = guide._covering_rows()
            assert rows == _rows_by_rescanning(guide)
            checked += bool(rows)
    assert checked >= 10  # most cases have rows to compare


def test_scheduler_without_invariant_heuristic_still_works():
    net = paper_nets.figure_8()
    result = find_schedule(
        net, "a", options=SchedulerOptions(use_invariant_heuristic=False), raise_on_failure=True
    )
    assert result.schedule is not None
    result.schedule.validate()


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def test_build_run_tracks_positions_and_choices(divisors_system, divisors_schedule):
    schedules = {"src.divisors.in": divisors_schedule}
    run = build_run(schedules, ["src.divisors.in"] * 3, resolver=random_choice_resolver(1))
    assert len(run) == 3
    sequence = run.transition_sequence()
    assert sequence.count("src.divisors.in") == 3
    assert run.final_marking is not None


def test_build_run_errors():
    net = paper_nets.figure_5()
    results = find_all_schedules(net, raise_on_failure=True)
    schedules = {s: r.schedule for s, r in results.items()}
    with pytest.raises(RunError):
        build_run(schedules, ["unknown"])
    with pytest.raises(RunError):
        build_run({}, ["a"])
