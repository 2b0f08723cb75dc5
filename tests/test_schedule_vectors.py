"""Schedule markings stay vectors from the EP tree to the simulated task.

The search hands its interned marking vectors to the schedule as they are.
Validation, the place bounds, code generation, serialisation and the
single-task simulation read those vectors; a name-keyed ``Marking`` is built
only for a caller that reads ``node.marking``, as a lazy view of the vector
and of the indexed snapshot the vector belongs to.
"""

from __future__ import annotations

import json

import pytest

from golden_nets import GOLDEN_CASES
from repro.codegen.synthesis import synthesize_task, synthesized_code_size
from repro.petrinet.analysis import StructuralAnalysis
from repro.petrinet.indexed import IndexedNet
from repro.petrinet.marking import Marking
from repro.runtime.simulation import SingleTaskSimulation
from repro.scheduling.ep import SchedulerOptions, find_schedule
from repro.scheduling.schedule import ScheduleNode
from repro.scheduling.serialize import schedule_from_dict, schedule_to_json
from sim_counters import cases

#: PFC 4x5, divisors and one corpus system of each family but chain
PIPELINE_SYSTEMS = (
    "pfc_4x5",
    "divisors",
    "tree_20260816",
    "fork_join_20260810",
    "layered_20260825",
    "diamond_20260812",
    "feedback_20260813",
    "multi_source_20260814",
)


@pytest.fixture(scope="module")
def pipeline_cases():
    return {case[0]: case for case in cases() if case[0] in PIPELINE_SYSTEMS}


@pytest.fixture
def conversions(monkeypatch):
    """Counts of ``IndexedNet.marking_of_vec`` calls and of ``Marking``
    constructions (``__init__`` and the indexed core's sorted-items path)."""
    counts = {"marking_of_vec": 0, "Marking": 0}
    marking_of_vec = IndexedNet.marking_of_vec
    marking_init = Marking.__init__
    from_sorted_items = Marking._from_sorted_items.__func__

    def counting_marking_of_vec(self, vec):
        counts["marking_of_vec"] += 1
        return marking_of_vec(self, vec)

    def counting_init(self, *args, **kwargs):
        counts["Marking"] += 1
        marking_init(self, *args, **kwargs)

    def counting_from_sorted_items(cls, items):
        counts["Marking"] += 1
        return from_sorted_items(cls, items)

    monkeypatch.setattr(IndexedNet, "marking_of_vec", counting_marking_of_vec)
    monkeypatch.setattr(Marking, "__init__", counting_init)
    monkeypatch.setattr(Marking, "_from_sorted_items", classmethod(counting_from_sorted_items))
    return counts


@pytest.mark.parametrize("name", PIPELINE_SYSTEMS)
def test_no_marking_is_built_from_the_search_to_the_simulated_task(
    name, pipeline_cases, conversions
):
    """``find_schedule`` through ``synthesize_task``, ``synthesized_code_size``
    and ``SingleTaskSimulation.run`` convert no vector to a ``Marking`` and
    build none.  (Before the vectors went end to end, each schedule node cost
    one ``marking_of_vec`` call: 75 on PFC 4x5.)"""
    _name, linked, sources, stimulus, _capacity, max_nodes = pipeline_cases[name]
    net = linked.net
    analysis = StructuralAnalysis.of(net)
    options = SchedulerOptions(max_nodes=max_nodes)
    schedules = {}
    for source in sources:
        result = find_schedule(net, source, options=options, analysis=analysis)
        assert result.success, result.failure_reason
        schedules[source] = result.schedule
        task = synthesize_task(linked, result.schedule, analysis=analysis)
        assert synthesized_code_size(task, linked) > 0
    SingleTaskSimulation(linked, schedules=schedules).run(stimulus)
    assert conversions == {"marking_of_vec": 0, "Marking": 0}
    if name == "pfc_4x5":
        assert len(schedules["src.controller.init"]) == 75


def _golden_schedules():
    for net_name, (builder, sources) in sorted(GOLDEN_CASES.items()):
        for source in sources:
            result = find_schedule(builder(), source)
            if result.success:
                yield f"{net_name}__{source}", result.schedule


@pytest.mark.parametrize("moved", [False, True], ids=["same_snapshot", "moved_snapshot"])
def test_vectors_views_and_canonical_form_agree_on_every_golden_schedule(moved):
    """For every golden schedule: the lazy ``node.marking`` equals the eager
    ``marking_of_vec`` of its vector, and the canonical form rebuilds into a
    schedule that validates and serialises to the same bytes.  With
    ``moved``, a place whose name sorts first is added before any view is
    read, so the rebuilt snapshot numbers every place one higher: a vector
    must be read with the snapshot it came from, never with the new one."""
    checked = 0
    for case, schedule in _golden_schedules():
        net = schedule.net
        old = net.indexed()
        expected = [old.marking_of_vec(node.vec_in(old)) for node in schedule.nodes]
        data = schedule_to_json(schedule)
        if moved:
            net.add_place("!unmarked")
            assert net.indexed() is not old
        inet = net.indexed()
        assert [node.marking for node in schedule.nodes] == expected, case
        assert [inet.marking_of_vec(node.vec_in(inet)) for node in schedule.nodes] == expected
        schedule.validate()
        assert schedule_to_json(schedule) == data, case
        replayed = schedule_from_dict(net, json.loads(data))
        replayed.validate()
        assert schedule_to_json(replayed) == data, case
        checked += 1
    assert checked == 9  # every golden case but Figure 4b's two failures


def test_a_node_built_from_a_marking_converts_once_per_snapshot():
    net = GOLDEN_CASES["figure_5"][0]()
    node = ScheduleNode(0, net.initial_marking, {"a": 1})
    inet = net.indexed()
    vec = node.vec_in(inet)
    assert vec == inet.initial_vec and node.vec_in(inet) is vec
    net.add_place("!unmarked")
    moved = net.indexed()
    assert node.vec_in(moved) == moved.initial_vec
    assert node.marking == net.initial_marking
    node.marking = Marking({"zz_ghost": 1})
    assert node.vec_in(moved) == (0,) * len(moved.place_names)
    assert node.foreign == (("zz_ghost", 1),)
