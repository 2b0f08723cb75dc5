"""Multi-source ``find_all_schedules`` vs one search per source.

``find_all_schedules`` runs the per-source searches one after another in
one process, sharing one structural analysis (the process pool that fanned
them out is gone).  It must stay observationally identical to calling
:func:`find_schedule` once per source on its own: byte-identical schedules
(canonical JSON) re-bound to the caller's net, identical per-source
counters / tree sizes / failure reasons, and the same deterministic result
order.  The module also pins the explicit-RNG workload generators and the
record cache's replay contract.

The test names are kept from the deleted process-pool suite, so the test
IDs stay stable.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps import paper_nets
from repro.apps.workloads import random_marked_graph, random_multi_source_net
from repro.petrinet.fingerprint import structural_fingerprint
from repro.scheduling.ep import (
    SchedulerOptions,
    SchedulingFailure,
    SearchCounters,
    find_all_schedules,
    find_schedule,
)
from repro.scheduling.serialize import result_to_record, schedule_to_json
from repro.serve import SchedulingService
from service_path import schedule_through, without_clock


def per_source(net, options=None, sources=None):
    """One independent ``find_schedule`` per source, each on its own analysis."""
    targets = sources if sources is not None else net.uncontrollable_sources()
    return {source: find_schedule(net, source, options=options) for source in targets}


def assert_equivalent(net, serial, other):
    assert list(serial) == list(other)  # same deterministic order
    for source in serial:
        a, b = serial[source], other[source]
        assert a.success == b.success, source
        if a.schedule is not None:
            assert schedule_to_json(a.schedule) == schedule_to_json(b.schedule)
            # every schedule is bound to the caller's net object
            assert a.schedule.net is net and b.schedule.net is net
        assert a.failure_reason == b.failure_reason
        assert a.tree_nodes == b.tree_nodes
        assert a.counters.as_dict() == b.counters.as_dict()
    total_serial = SearchCounters.aggregate(r.counters for r in serial.values())
    total_other = SearchCounters.aggregate(r.counters for r in other.values())
    assert total_serial.as_dict() == total_other.as_dict()


@pytest.mark.parametrize(
    "builder",
    [
        paper_nets.figure_4a,
        paper_nets.figure_4b,
        paper_nets.figure_5,
        paper_nets.figure_6,
        lambda: paper_nets.figure_7(3),
        paper_nets.figure_8,
    ],
    ids=["figure_4a", "figure_4b", "figure_5", "figure_6", "figure_7_k3", "figure_8"],
)
def test_parallel_matches_serial_on_figure_nets(builder):
    net = builder()
    assert_equivalent(net, find_all_schedules(net), per_source(net))


def test_workers_argument_spawns_own_pool():
    """The ``workers`` knob is gone: passing it is an error, not a silently
    serial run."""
    net = paper_nets.figure_5()
    with pytest.raises(TypeError):
        find_all_schedules(net, workers=2)
    assert_equivalent(net, find_all_schedules(net), per_source(net))


def test_parallel_raise_on_failure():
    net = paper_nets.figure_4b()
    options = SchedulerOptions(max_nodes=500)
    with pytest.raises(SchedulingFailure, match="'a'"):
        find_all_schedules(net, options=options, raise_on_failure=True)


def test_parallel_unknown_source_raises():
    net = paper_nets.figure_5()
    with pytest.raises(KeyError):
        find_all_schedules(net, sources=["nope"])


def test_parallel_no_sources_is_empty():
    net = paper_nets.figure_5()
    assert find_all_schedules(net, sources=[]) == {}


@settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    sources=st.integers(min_value=1, max_value=3),
    transitions=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_parallel_matches_serial_on_generated_multi_source_nets(
    sources, transitions, seed
):
    net = random_multi_source_net(sources, transitions, rng=random.Random(seed))
    options = SchedulerOptions(max_nodes=20_000)
    serial = find_all_schedules(net, options=options)
    assert_equivalent(net, serial, per_source(net, options=options))
    assert len(serial) == sources
    for result in serial.values():
        assert result.success


@settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    transitions=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_parallel_matches_serial_on_marked_graphs(transitions, seed):
    net = random_marked_graph(transitions, rng=random.Random(seed))
    options = SchedulerOptions(max_nodes=20_000)
    assert_equivalent(
        net, find_all_schedules(net, options=options), per_source(net, options=options)
    )


def test_external_executor_stays_identical_after_worker_cache_eviction():
    """Results from a reused record cache survive its eviction.

    A service whose L1 holds 4 records is fed more distinct nets than that,
    evicting the first net's records; rescheduling that net afterwards
    searches again and must still produce byte-identical results.
    """
    builders = [
        paper_nets.figure_4a,
        paper_nets.figure_5,
        paper_nets.figure_6,
        paper_nets.figure_8,
        lambda: paper_nets.figure_7(3),
    ]
    service = SchedulingService(l1_capacity=4)

    def through_cache(net):
        return {
            source: schedule_through(service, net, source)
            for source in net.uncontrollable_sources()
        }

    first_net = builders[0]()
    before = through_cache(first_net)
    for builder in builders[1:]:
        through_cache(builder())
    after = through_cache(first_net)
    assert all(origin == "search" for _record, origin in after.values())
    serial = find_all_schedules(first_net)
    assert list(before) == list(after) == list(serial)
    for source, result in serial.items():
        expected = without_clock(result_to_record(result))
        assert without_clock(before[source][0]) == expected, source
        assert without_clock(after[source][0]) == expected, source


# ---------------------------------------------------------------------------
# workload generator determinism (the explicit-RNG refactor)
# ---------------------------------------------------------------------------


def test_generators_take_explicit_rng_and_are_deterministic():
    a = random_marked_graph(5, rng=random.Random(7))
    b = random_marked_graph(5, rng=random.Random(7))
    assert structural_fingerprint(a) == structural_fingerprint(b)
    # seed= remains a convenience for an implicit Random(seed)
    c = random_marked_graph(5, seed=7)
    assert structural_fingerprint(a) == structural_fingerprint(c)
    # different seeds actually produce different structures (seed 7 draws
    # different extra edges than seed 8 at this size)
    d = random_marked_graph(5, rng=random.Random(8))
    assert structural_fingerprint(a) != structural_fingerprint(d)


def test_generators_do_not_touch_global_random_state():
    random.seed(1234)
    before = random.getstate()
    random_marked_graph(5, seed=3)
    random_multi_source_net(2, 3, seed=4)
    assert random.getstate() == before


def test_multi_source_net_shape():
    net = random_multi_source_net(3, 3, rng=random.Random(0))
    assert net.uncontrollable_sources() == ["r0.src", "r1.src", "r2.src"]


def test_warm_start_replay_keeps_original_statistics():
    """A replayed result keeps the original search's wall clock and counters
    (experiment tables report scheduling time; 0.0 would corrupt them)."""
    service = SchedulingService()
    first, origin = schedule_through(service, paper_nets.figure_5(), "a")
    replayed, replay_origin = schedule_through(service, paper_nets.figure_5(), "a")
    assert (origin, replay_origin) == ("search", "l1")
    assert replayed["elapsed_seconds"] == first["elapsed_seconds"] > 0.0
    assert replayed == first
