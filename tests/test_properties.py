"""Property-based tests (hypothesis) on the core invariants of the flow."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps.workloads import (
    build_pipeline_network,
    build_producer_consumer_network,
    random_marked_graph,
)
from repro.flowc.linker import link
from repro.petrinet.analysis import compute_ecs_partition
from repro.petrinet.invariants import incidence_matrix, t_invariant_basis, is_t_invariant
from repro.petrinet.marking import Marking
from repro.scheduling.ep import SchedulerOptions, find_schedule
from repro.scheduling.independence import is_independent_set
from repro.scheduling.runs import build_run


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=50))
def test_firing_matches_incidence_matrix(transitions, seed):
    """Firing a transition changes the marking by exactly its incidence column."""
    net = random_marked_graph(transitions, seed=seed)
    matrix, places, names = incidence_matrix(net)
    marking = net.initial_marking
    for transition in net.enabled_transitions(marking):
        after = net.fire(transition, marking)
        column = names.index(transition)
        for row, place in enumerate(places):
            assert after[place] - marking[place] == matrix[row][column]


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=50))
def test_ecs_partition_is_a_partition(transitions, seed):
    net = random_marked_graph(transitions, seed=seed)
    partition = compute_ecs_partition(net)
    seen = [t for ecs in partition for t in ecs]
    assert sorted(seen) == sorted(net.transitions)
    assert len(seen) == len(set(seen))


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=20))
def test_marked_graphs_are_schedulable(transitions, seed):
    """Strongly-connected marked graphs with the all-ones invariant always
    admit a single-source schedule (the class the paper cites as exactly
    solvable)."""
    net = random_marked_graph(transitions, seed=seed)
    result = find_schedule(net, "src", options=SchedulerOptions(max_nodes=20_000))
    assert result.success
    result.schedule.validate()
    # the schedule fires every transition of the ring
    assert set(net.transitions) == result.schedule.involved_transitions()


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=1, max_value=6), st.sampled_from([1, 2, 3]))
def test_producer_consumer_schedule_bounds(items_factor, burst):
    """The synthesized schedule bounds the data channel by one burst."""
    items = burst * items_factor
    network = build_producer_consumer_network(items=items, burst=burst)
    system = link(network)
    result = find_schedule(
        system.net, "src.producer.trigger", options=SchedulerOptions(max_nodes=30_000)
    )
    assert result.success
    schedule = result.schedule
    schedule.validate()
    assert len(schedule.await_nodes()) == 1
    data_place = system.channel_places["data"]
    assert schedule.place_bounds()[data_place] <= burst
    # runs of arbitrary length are executable
    run = build_run({"src.producer.trigger": schedule}, ["src.producer.trigger"] * 3)
    assert run.final_marking == system.net.initial_marking


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=2, max_value=4), st.integers(min_value=1, max_value=4))
def test_pipeline_schedules_are_single_source_and_independent(stages, items):
    network = build_pipeline_network(stages=stages, items=items)
    system = link(network)
    result = find_schedule(
        system.net, "src.stage0.trigger", options=SchedulerOptions(max_nodes=30_000)
    )
    assert result.success
    schedule = result.schedule
    assert schedule.is_single_source()
    assert is_independent_set([schedule])
    for place, bound in schedule.channel_bounds().items():
        assert bound <= max(items, 1)


@settings(max_examples=30, deadline=None)
@given(
    st.dictionaries(
        st.sampled_from(["a", "b", "c"]), st.integers(min_value=0, max_value=5), max_size=3
    ),
    st.dictionaries(
        st.sampled_from(["a", "b", "c"]), st.integers(min_value=0, max_value=5), max_size=3
    ),
)
def test_marking_cover_is_consistent_with_add(base, extra):
    m = Marking(base)
    bigger = m.add(extra)
    assert bigger.covers(m)
    if any(extra.values()):
        assert bigger != m


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=30))
def test_invariant_basis_members_are_invariants(transitions, seed):
    net = random_marked_graph(transitions, seed=seed)
    for invariant in t_invariant_basis(net):
        assert is_t_invariant(net, invariant)
        assert all(count > 0 for count in invariant.values())
