"""Tests for code generation (threads, segments, C synthesis, executable task)
and for the two simulation substrates."""

from __future__ import annotations

import pytest

from repro.apps import paper_nets
from repro.apps.divisors import build_divisors_system, reference_divisors
from repro.apps.video import (
    VideoAppConfig,
    build_video_system,
    reference_coefficient,
    reference_frame_checksum,
)
from repro.apps.workloads import build_producer_consumer_network
from repro.codegen.segments import ecs_label, extract_code_segments
from repro.codegen.synthesis import (
    baseline_code_size,
    render_statement,
    synthesize_task,
    synthesized_code_size,
)
from repro.codegen.task import ExecutableTask, TaskExecutionError
from repro.flowc.linker import link
from repro.flowc.netlist import Network
from repro.flowc.parser import parse_expression, parse_statements
from repro.runtime.channels import PortBinding, EnvironmentSource, EnvironmentSink, ChannelBuffer
from repro.runtime.cost_model import PROFILES, CostModel, CycleCosts
from repro.runtime.simulation import MultiTaskSimulation, SingleTaskSimulation
from repro.scheduling.ep import find_all_schedules, find_schedule
from repro.scheduling.runs import RunError, build_run
from repro.scheduling.schedule import ReactionError, Schedule


# ---------------------------------------------------------------------------
# Threads and code segments (on the Figure 8 schedule of Section 6.2.1)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def figure8_schedule():
    net = paper_nets.figure_8()
    return find_schedule(net, "a", raise_on_failure=True).schedule


def test_threads_of_figure8(figure8_schedule):
    # two await nodes -> two threads (TH1 and TH2 of Figure 15), each ending
    # on an await node whichever way its {b, c} choice goes
    assert [node.index for node in figure8_schedule.await_nodes()] == [0, 3]
    walks = {}
    for start in (0, 3):
        for pick in (min, max):
            steps = list(
                figure8_schedule.reaction(start, "a", lambda node: pick(node.edges), max_steps=9)
            )
            walks[start, pick.__name__] = ([t for t, _node in steps], steps[-1][1].index)
    assert walks == {
        (0, "min"): (["a", "b", "d"], 0),
        (0, "max"): (["a", "c"], 3),
        (3, "min"): (["a", "b", "d"], 3),
        (3, "max"): (["a", "c", "e"], 0),
    }


def test_code_segments_of_figure8(figure8_schedule):
    segments = extract_code_segments(figure8_schedule)
    # distinct ECSs: {a}, {b,c}, {d}, {e} -> each emitted exactly once
    assert set(map(frozenset, segments.node_by_ecs)) == {
        frozenset({"a"}),
        frozenset({"b", "c"}),
        frozenset({"d"}),
        frozenset({"e"}),
    }
    # the entry segment starts with the uncontrollable source
    assert segments.entry_segment.root.ecs == frozenset({"a"})
    # every ECS belongs to exactly one segment; in our reconstruction the
    # deterministic a -> {b,c} -> {d} chain is inlined into the entry segment
    # while {e} (whose continuation depends on run-time data) roots its own
    bc_segment = segments.segment_for(frozenset({"b", "c"}))
    assert bc_segment is segments.entry_segment
    e_segment = segments.segment_for(frozenset({"e"}))
    assert e_segment.root.ecs == frozenset({"e"})
    # p3 is the only state variable (as in Figure 16)
    assert segments.state_places() == ["p3"]
    # the c branch continuation depends on the state: a non-deterministic jump
    bc_node = segments.node_by_ecs[frozenset({"b", "c"})]
    assert "c" in bc_node.jumps and not bc_node.jumps["c"].deterministic
    assert "b" in bc_node.jumps or "b" in bc_node.children
    assert ecs_label(frozenset({"c", "b"})) == "b_c"


def test_code_segments_cover_every_schedule_node(divisors_schedule):
    segments = extract_code_segments(divisors_schedule)
    schedule_ecss = {frozenset(node.edges) for node in divisors_schedule.nodes}
    assert schedule_ecss == set(segments.node_by_ecs)
    total_states = sum(len(node.states) for node in segments.node_by_ecs.values())
    assert total_states == len(divisors_schedule)


# ---------------------------------------------------------------------------
# C synthesis
# ---------------------------------------------------------------------------


def test_render_expression_and_statement_roundtrip():
    assert str(parse_expression("a + b * 2")) == "(a + (b * 2))"
    lines = render_statement(parse_statements("if (x > 0) y = 1; else y = 2;")[0])
    text = "\n".join(lines)
    assert "if ((x > 0))" in text and "else" in text
    lines = render_statement(parse_statements("READ_DATA(p, &v, 3);")[0])
    assert lines == ["READ_DATA(p, &v, 3);"]


def test_synthesize_divisors_task(divisors_system, divisors_schedule):
    task = synthesize_task(divisors_system, divisors_schedule)
    source = task.full_source
    # three sections are present
    assert "_init(void)" in source and "_ISR(void)" in source
    # the ISR starts with the entry segment and contains the data choices;
    # cs1..cs4 label the segment roots and the ECSs the gotos land on
    assert task.count_construct("labels") == 4
    assert task.count_construct("returns") >= 1
    assert "if (" in task.run_section
    # the divisors code appears in the generated text
    assert "READ_DATA(in" in source
    assert "WRITE_DATA(all" in source


def test_synthesized_code_size_smaller_than_baseline(small_video_system, small_video_schedule):
    task = synthesize_task(small_video_system, small_video_schedule)
    for profile in ("pfc", "pfc-O", "pfc-O2"):
        baseline = baseline_code_size(small_video_system, profile=profile)
        single = synthesized_code_size(task, small_video_system, profile=profile)
        assert single < baseline["total"]
        # the sharing ablation produces strictly larger code
        unshared = synthesized_code_size(
            task, small_video_system, profile=profile, share_code_segments=False
        )
        assert unshared >= single
    # optimisation levels shrink both implementations
    assert baseline_code_size(small_video_system, profile="pfc-O")["total"] < baseline_code_size(
        small_video_system, profile="pfc"
    )["total"]


def test_synthesis_computes_the_place_bounds_once(
    small_video_system, small_video_schedule, monkeypatch
):
    calls = []
    place_bounds = Schedule.place_bounds

    def counting(schedule):
        calls.append(schedule)
        return place_bounds(schedule)

    monkeypatch.setattr(Schedule, "place_bounds", counting)
    task = synthesize_task(small_video_system, small_video_schedule)
    # every channel of the video system is an intra-task circular buffer
    assert task.full_source.count("_head, buf_") == 5
    assert len(calls) == 1


def test_baseline_code_size_function_call_variant(small_video_system):
    inlined = baseline_code_size(small_video_system, inline_communication=True)
    called = baseline_code_size(small_video_system, inline_communication=False)
    assert called["total"] < inlined["total"]


# ---------------------------------------------------------------------------
# One process, three readers of its choices: both simulators and the C
# ---------------------------------------------------------------------------


def _solo_system(body):
    """One process reading the uncontrollable input ``i`` and writing ``o``."""
    network = Network(name="solo")
    network.add_processes_from_source(
        f"PROCESS p (In DPORT i, Out DPORT o) {{ int a, b, x; while (1) {{ {body} }} }}"
    )
    network.declare_input("p", "i", controllable=False)
    network.declare_output("p", "o")
    return link(network)


def _schedules(system):
    results = find_all_schedules(system.net, raise_on_failure=True)
    return {source: result.schedule for source, result in results.items()}


def _both_outputs(system, values):
    """What the multi-task and the single-task simulation write to ``o``."""
    stimulus = {"i": values}
    multi = MultiTaskSimulation(system, stimulus=stimulus).run()
    single = SingleTaskSimulation(system, schedules=_schedules(system)).run(stimulus)
    assert multi.events_served == single.events_served == len(values)
    return multi.outputs.port("o"), single.outputs.port("o")


def _isr(system):
    (schedule,) = _schedules(system).values()
    return synthesize_task(system, schedule).run_section


SWITCH_0_1 = (
    "READ_DATA(i, x, 1); switch (x) { case 0: WRITE_DATA(o, 10, 1); break; "
    "case 1: WRITE_DATA(o, 20, 1); break;"
)


@pytest.mark.parametrize(
    "default, values, written",
    [("", [0, 1, 1, 0], [10, 20, 20, 10]), ("default: WRITE_DATA(o, 30, 1);", [0, 1, 5], [10, 20, 30])],
    ids=["no-default", "default"],
)
def test_switch_on_zero_and_one_is_a_switch_in_the_c_and_both_simulators(default, values, written):
    # case labels 0 and 1 equal False and True: a rule that compares guards
    # by value takes this switch for an if/else and inverts it in the C
    system = _solo_system(SWITCH_0_1 + default + " }")
    lines = [line.strip() for line in _isr(system).splitlines()]
    assert "switch (x) {" in lines and not any(line.startswith("if (") for line in lines)
    case_0 = lines.index("case 0:")
    assert lines[case_0 + 2] == "WRITE_DATA(o, 10, 1);"
    assert _both_outputs(system, values) == (written, written)


def test_switch_without_default_skips_an_unmatched_value():
    # as in C and in the interpreter: no case matches 5, so nothing runs
    system = _solo_system(SWITCH_0_1 + " } WRITE_DATA(o, x, 1);")
    assert _both_outputs(system, [5, 1]) == ([5, 20, 1], [5, 20, 1])
    assert "default:" in [line.strip() for line in _isr(system).splitlines()]


def test_a_braced_case_body_ending_in_break_leaves_the_switch():
    # the break is C's exit from the switch, not code of the case's transition
    system = _solo_system(
        "READ_DATA(i, x, 1); switch (x) { case 0: { WRITE_DATA(o, 10, 1); break; } "
        "case 1: { WRITE_DATA(o, 20, 1); break; } }"
    )
    assert _both_outputs(system, [0, 1]) == ([10, 20], [10, 20])


def test_nested_blocks_around_port_statements_compile():
    system = _solo_system("{ { READ_DATA(i, x, 1); } } { WRITE_DATA(o, x * 2, 1); }")
    assert _both_outputs(system, [3, 4]) == ([6, 8], [6, 8])


def test_code_size_tells_apart_bodies_that_differ_inside_a_compound_statement():
    def size(second):
        system = _solo_system(
            "READ_DATA(i, x, 1); if (x) { a = 1; b = a * 3 + 1; } WRITE_DATA(o, b, 1); "
            f"READ_DATA(i, x, 1); if (x) {{ {second} }} WRITE_DATA(o, b, 1);"
        )
        (schedule,) = _schedules(system).values()
        return synthesized_code_size(synthesize_task(system, schedule), system)

    # both if statements print as "if (x) { ... }": only the AST tells them apart
    assert size("a = 2; b = a * 3 + 1;") > size("a = 1; b = a * 3 + 1;")


# ---------------------------------------------------------------------------
# Executable task
# ---------------------------------------------------------------------------


def _divisors_task(system, schedule):
    binding = PortBinding()
    binding.bind_source("in", EnvironmentSource("in"))
    binding.bind_sink("max", EnvironmentSink("max"))
    binding.bind_sink("all", EnvironmentSink("all"))
    return ExecutableTask(system, schedule, binding), binding


def test_executable_task_computes_divisors(divisors_system, divisors_schedule):
    task, binding = _divisors_task(divisors_system, divisors_schedule)
    task.react(12)
    task.react(7)
    assert binding.sinks["max"].values == [6, 1]
    assert binding.sinks["all"].values == reference_divisors(12) + reference_divisors(7)
    assert task.stats.events_served == 2
    assert task.stats.transitions_executed > 0
    assert "await node" in task.describe_state()


def test_executable_task_run_events_and_counter(divisors_system, divisors_schedule):
    task, binding = _divisors_task(divisors_system, divisors_schedule)
    task.run_events([30, 30])
    assert binding.sinks["max"].values == [15, 15]
    assert task.counter.total() > 0
    assert task.communication_stats().environment_reads == 2


REFUSALS = {
    "no edge for the event": "has no edge for 'src.divisors.in'",
    "a dead end": "has no outgoing edges",
    "a choice that is no edge": "'nowhere' is not an edge of node",
    "the step budget": "took more than 3 steps",
}


@pytest.mark.parametrize("case", REFUSALS)
def test_both_callers_of_the_reaction_walk_refuse_alike(divisors_system, case):
    """``build_run`` and the executable task walk one reaction; each turns
    the walk's refusals into its own error class."""
    source = "src.divisors.in"
    schedule = find_schedule(divisors_system.net, source, raise_on_failure=True).schedule
    after_source = schedule.node(schedule.root_node.edges[source])
    if case == "no edge for the event":
        schedule.root_node.edges = {"elsewhere": after_source.index}
    elif case == "a dead end":
        after_source.edges.clear()
    budget = 3 if case == "the step budget" else 1000
    nowhere = case == "a choice that is no edge"

    with pytest.raises(RunError, match=REFUSALS[case]) as refused:
        build_run(
            {source: schedule},
            [source],
            resolver=(lambda *_: "nowhere") if nowhere else None,
            max_steps_per_event=budget,
        )
    assert isinstance(refused.value.__cause__, ReactionError)

    task, _binding = _divisors_task(divisors_system, schedule)
    task.max_steps_per_event = budget
    if nowhere:
        task._resolve_choice = lambda node: "nowhere"
    with pytest.raises(TaskExecutionError, match=REFUSALS[case]) as refused:
        task.react(12)
    assert isinstance(refused.value.__cause__, ReactionError)
    assert task.current_node == schedule.root


# ---------------------------------------------------------------------------
# Simulators
# ---------------------------------------------------------------------------


def test_multi_and_single_task_outputs_match_divisors(divisors_system, divisors_schedule):
    stimulus = {"in": [12, 7, 36, 13]}
    multi = MultiTaskSimulation(divisors_system, channel_capacity=4, stimulus=stimulus).run()
    single = SingleTaskSimulation(
        divisors_system, schedules={"src.divisors.in": divisors_schedule}
    ).run(stimulus)
    assert multi.outputs.by_port == single.outputs.by_port
    assert multi.outputs.port("max") == [6, 1, 18, 1]
    expected_all = sum((reference_divisors(n) for n in stimulus["in"]), [])
    assert multi.outputs.port("all") == expected_all
    assert multi.events_served == 4 and single.events_served == 4
    # cost structure: the multi-task run pays context switches, the single
    # task pays ISR dispatches instead
    assert multi.context_switches > 0 and single.context_switches == 0
    assert single.isr_dispatches == 4


def test_multi_and_single_task_outputs_match_video(small_video_system, small_video_schedule, small_video_config):
    frames = 3
    stimulus = {"init": [f % 2 for f in range(frames)]}
    multi = MultiTaskSimulation(
        small_video_system, channel_capacity=10, stimulus=stimulus
    ).run()
    single = SingleTaskSimulation(
        small_video_system, schedules={"src.controller.init": small_video_schedule}
    ).run(stimulus)
    assert multi.outputs.by_port == single.outputs.by_port
    pixels = small_video_config.pixels_per_frame
    assert len(multi.outputs.port("display")) == frames * pixels
    # the displayed data matches the reference filter computation
    coeff0 = reference_coefficient(0, stimulus["init"][0])
    first_pixel = (0 * 31 + 0) % 256
    assert multi.outputs.port("display")[0] == (first_pixel * coeff0) % 256
    # cycles: the single task is faster under every profile
    for profile in PROFILES.values():
        assert single.cycles(profile) < multi.cycles(profile)


@pytest.mark.parametrize("lines, pixels", [(2, 3), (4, 5), (10, 10)])
def test_pfc_frames_sum_to_the_reference_checksum(lines, pixels):
    """Every frame the display receives sums (mod 65536) to the checksum of
    the reference filter computation, in both simulators."""
    config = VideoAppConfig(lines_per_frame=lines, pixels_per_line=pixels)
    system = build_video_system(config)
    source = "src.controller.init"
    schedule = find_schedule(system.net, source, raise_on_failure=True).schedule
    stimulus = {"init": [0, 1, 1, 0, 1]}
    expected = [
        reference_frame_checksum(config, frame, reference_coefficient(frame, cmd))
        for frame, cmd in enumerate(stimulus["init"])
    ]
    multi = MultiTaskSimulation(system, channel_capacity=pixels, stimulus=stimulus).run()
    single = SingleTaskSimulation(system, schedules={source: schedule}).run(stimulus)
    size = config.pixels_per_frame
    for result in (multi, single):
        display = result.outputs.port("display")
        assert len(display) == len(expected) * size
        frames = [display[start:start + size] for start in range(0, len(display), size)]
        assert [sum(frame) % 65536 for frame in frames] == expected


def test_single_task_channel_bounds_and_occupancy(small_video_system, small_video_schedule, small_video_config):
    simulation = SingleTaskSimulation(
        small_video_system, schedules={"src.controller.init": small_video_schedule}
    )
    simulation.run({"init": [0, 1]})
    bounds = simulation.channel_bounds()
    assert bounds["Req"] == 1 and bounds["Ack"] == 1 and bounds["Coeff"] == 1
    assert bounds["Pixels1"] == small_video_config.pixels_per_line
    result = simulation.result()
    for channel, occupancy in result.channel_max_occupancy.items():
        assert occupancy <= bounds[channel]


def test_multi_task_buffer_size_changes_context_switches(small_video_system):
    stimulus = {"init": [0, 0]}
    small = MultiTaskSimulation(
        small_video_system, channel_capacity=3, stimulus=stimulus
    ).run()
    large = MultiTaskSimulation(
        small_video_system, channel_capacity=100, stimulus=stimulus
    ).run()
    assert small.outputs.by_port == large.outputs.by_port
    assert small.context_switches >= large.context_switches
    assert small.cycles("pfc") >= large.cycles("pfc")


def test_producer_consumer_workload_end_to_end():
    network = build_producer_consumer_network(items=6, burst=2)
    system = link(network)
    schedule = find_schedule(system.net, "src.producer.trigger", raise_on_failure=True).schedule
    stimulus = {"trigger": [1, 2]}
    multi = MultiTaskSimulation(system, channel_capacity=8, stimulus=stimulus).run()
    single = SingleTaskSimulation(
        system, schedules={"src.producer.trigger": schedule}
    ).run(stimulus)
    assert multi.outputs.by_port == single.outputs.by_port
    expected = [sum((t + k) % 97 for k in range(6)) % 9973 for t in stimulus["trigger"]]
    assert multi.outputs.port("sum") == expected


def test_cost_model_profile_ordering():
    model = CostModel()
    counter_cycles = CycleCosts().computation_cycles
    from repro.flowc.interpreter import OperationCounter
    from repro.runtime.channels import CommunicationStats

    ops = OperationCounter(arithmetic=100, assignments=50, comparisons=30, branches=20)
    comm = CommunicationStats(intertask_reads=5, intertask_writes=5, intertask_items=50)
    pfc = model.execution_cycles(ops, comm, profile=PROFILES["pfc"], context_switches=10)
    opt = model.execution_cycles(ops, comm, profile=PROFILES["pfc-O"], context_switches=10)
    assert opt < pfc
    assert counter_cycles(ops) > 0
