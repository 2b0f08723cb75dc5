"""Quickstart: compile, schedule and synthesize the divisors process (Figure 1).

Run with ``python examples/quickstart.py``.

The example walks the full flow of the paper on its running example:
FlowC source -> Petri net (Figure 3) -> single-source schedule -> code
segments -> synthesized C task, and finally executes the synthesized task to
compute divisors.  It also shows the search counters on the result.
"""

from __future__ import annotations

from repro.apps.divisors import DIVISORS_SOURCE, build_divisors_network
from repro.codegen.synthesis import synthesize_task
from repro.flowc.linker import link
from repro.runtime.simulation import SingleTaskSimulation
from repro.scheduling.ep import find_schedule


def main() -> None:
    print("=== FlowC source (Figure 1) ===")
    print(DIVISORS_SOURCE)

    # 1. compile + link the one-process network
    network = build_divisors_network()
    system = link(network)
    print("=== Linked Petri net ===")
    print(f"places={len(system.net.places)}  transitions={len(system.net.transitions)}")
    print(f"uncontrollable inputs: {system.net.uncontrollable_sources()}")

    # 2. quasi-static scheduling for the uncontrollable input port `in`
    result = find_schedule(system.net, "src.divisors.in", raise_on_failure=True)
    schedule = result.schedule
    print("=== Schedule ===")
    print(
        f"{len(schedule)} nodes, {len(schedule.await_nodes())} await node(s), "
        f"explored {result.tree_nodes} tree nodes in {result.elapsed_seconds:.3f}s"
    )
    print(f"search counters: {result.counters.as_dict()}")
    print("channel bounds (tokens):", schedule.channel_bounds())

    # 3. code generation
    task = synthesize_task(system, schedule)
    print("\n=== Synthesized C task ===")
    print(task.full_source)

    # 4. execute the synthesized task (interpreted) on a few inputs
    simulation = SingleTaskSimulation(system, schedules={"src.divisors.in": schedule})
    executable = simulation.tasks["src.divisors.in"]
    for value in (12, 7, 36):
        executable.react(value)
        print(f"input {value}: greatest divisor {simulation.sinks['max'].values[-1]}")
    print("all divisors emitted:", simulation.sinks["all"].values)


if __name__ == "__main__":
    main()
