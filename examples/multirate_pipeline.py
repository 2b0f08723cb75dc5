"""Multi-rate producer/consumer and pipeline workloads.

Run with ``python examples/multirate_pipeline.py``.

Demonstrates multi-rate communication (bursts of several items per port
operation), the channel bounds the scheduler derives, the independence /
executability machinery on systems with several pipeline stages, and
``find_all_schedules`` -- the entry point that schedules *every*
uncontrollable input.
"""

from __future__ import annotations

from repro.apps.workloads import build_pipeline_network, build_producer_consumer_network
from repro.flowc.linker import link
from repro.runtime.simulation import MultiTaskSimulation, SingleTaskSimulation
from repro.scheduling.ep import find_all_schedules, find_schedule
from repro.scheduling.independence import is_independent_set
from repro.scheduling.runs import build_run


def producer_consumer_demo() -> None:
    print("=== multi-rate producer/consumer ===")
    for burst in (1, 2, 4):
        network = build_producer_consumer_network(items=8, burst=burst)
        system = link(network)
        results = find_all_schedules(system.net, raise_on_failure=True)
        assert list(results) == ["src.producer.trigger"]  # the single input
        schedule = results["src.producer.trigger"].schedule
        data_place = system.channel_places["data"]
        print(
            f"burst={burst}: schedule {len(schedule):>3} nodes, "
            f"data channel bound = {schedule.place_bounds()[data_place]} items"
        )
        stimulus = {"trigger": [3, 5]}
        multi = MultiTaskSimulation(system, channel_capacity=8, stimulus=stimulus).run()
        single = SingleTaskSimulation(
            system, schedules={"src.producer.trigger": schedule}
        ).run(stimulus)
        assert multi.outputs.by_port == single.outputs.by_port
        print(f"         checksums: {single.outputs.port('sum')}")


def pipeline_demo() -> None:
    print("\n=== three-stage pipeline ===")
    network = build_pipeline_network(stages=3, items=4)
    system = link(network)
    schedule = find_schedule(system.net, "src.stage0.trigger", raise_on_failure=True).schedule
    print(f"schedule: {len(schedule)} nodes, single source: {schedule.is_single_source()}")
    print(f"independent set: {is_independent_set([schedule])}")
    run = build_run({"src.stage0.trigger": schedule}, ["src.stage0.trigger"] * 4)
    print(f"a run of 4 events fires {len(run.transition_sequence())} transitions and "
          f"returns to the initial marking: {run.final_marking == system.net.initial_marking}")


if __name__ == "__main__":
    producer_consumer_demo()
    pipeline_demo()
