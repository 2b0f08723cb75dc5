"""The false-path example of Section 7.2.

Two processes exchange 10 items on channel ``c0`` and 2 items on ``c1``
using fixed-bound loops.  The specification is perfectly schedulable -- both
loops always execute the same number of iterations -- but a compiler that
turns every loop into a data-dependent choice loses that correlation: the
Petri net then contains *false paths* (producer keeps writing while the
consumer stopped reading) and the conservative scheduler rejects it.

The paper's remedy is a SELECT-based rewrite with ``done`` channels that lets
the scheduler prove the overflowing path false.  Our compiler additionally
unrolls constant-bound ``for`` loops, which resolves the example directly; to
reproduce the paper's negative result the same source can be compiled with
unrolling disabled (``max_unroll=0``) via :func:`link_without_unrolling`.
"""

from __future__ import annotations

from typing import Dict

from repro.flowc.compiler import compile_process
from repro.flowc.linker import LinkedSystem, link
from repro.flowc.netlist import Network


# --- fixed-bound loops (the Section 7.2 processes A and B) ------------------
CONSTANT_LOOP_SOURCE = """
PROCESS prodA (In DPORT start, In DPORT c1, Out DPORT c0) {
    int i, x, buf1[10], buf2[2];
    while (1) {
        READ_DATA(start, &x, 1);
        for (i = 0; i < 10; i++)
            WRITE_DATA(c0, buf1[i], 1);
        for (i = 0; i < 2; i++)
            READ_DATA(c1, &buf2[i], 1);
    }
}

PROCESS consB (In DPORT c0, Out DPORT c1, Out DPORT out) {
    int i, buf3[10], buf4[2];
    while (1) {
        for (i = 0; i < 10; i++)
            READ_DATA(c0, &buf3[i], 1);
        for (i = 0; i < 2; i++)
            WRITE_DATA(c1, buf4[i], 1);
        WRITE_DATA(out, buf3, 10);
    }
}
"""


# --- SELECT rewrite with done channels (Section 7.2) -------------------------
SELECT_REWRITE_SOURCE = """
PROCESS prodA (In DPORT start, In DPORT c1, In DPORT done1, Out DPORT c0, Out DPORT done0) {
    int i, d, done, x, buf1[10], buf2[2];
    while (1) {
        READ_DATA(start, &x, 1);
        for (i = 0; i < 10; i++)
            WRITE_DATA(c0, buf1[i], 1);
        WRITE_DATA(done0, 0, 1);
        done = 0;
        i = 0;
        while (!done) {
            switch (SELECT(c1, 1, done1, 1)) {
                case 0:
                    READ_DATA(c1, &buf2[i], 1);
                    i++;
                    break;
                case 1:
                    READ_DATA(done1, &d, 1);
                    done = 1;
                    break;
            }
        }
    }
}

PROCESS consB (In DPORT c0, In DPORT done0, Out DPORT c1, Out DPORT done1, Out DPORT out) {
    int i, d, done, buf3[10], buf4[2];
    while (1) {
        done = 0;
        i = 0;
        while (!done) {
            switch (SELECT(c0, 1, done0, 1)) {
                case 0:
                    READ_DATA(c0, &buf3[i], 1);
                    i++;
                    break;
                case 1:
                    READ_DATA(done0, &d, 1);
                    done = 1;
                    break;
            }
        }
        for (i = 0; i < 2; i++)
            WRITE_DATA(c1, buf4[i], 1);
        WRITE_DATA(done1, 0, 1);
        WRITE_DATA(out, buf3, 10);
    }
}
"""


def build_false_path_network(*, name: str = "false_paths") -> Network:
    """The fixed-bound loop network of Section 7.2 (processes A and B)."""
    network = Network(name=name)
    network.add_processes_from_source(CONSTANT_LOOP_SOURCE)
    network.connect("prodA", "c0", "consB", "c0", name="c0")
    network.connect("consB", "c1", "prodA", "c1", name="c1")
    network.declare_input("prodA", "start", controllable=False)
    network.declare_output("consB", "out")
    return network


def build_select_rewrite_network(*, name: str = "select_rewrite") -> Network:
    """The SELECT rewrite of Section 7.2 with done channels."""
    network = Network(name=name)
    network.add_processes_from_source(SELECT_REWRITE_SOURCE)
    network.connect("prodA", "c0", "consB", "c0", name="c0")
    network.connect("prodA", "done0", "consB", "done0", name="done0")
    network.connect("consB", "c1", "prodA", "c1", name="c1")
    network.connect("consB", "done1", "prodA", "done1", name="done1")
    network.declare_input("prodA", "start", controllable=False)
    network.declare_output("consB", "out")
    return network


def link_with_unrolling(network: Network) -> LinkedSystem:
    """Link with the default compiler (constant loops unrolled): schedulable."""
    return link(network)


def link_without_unrolling(network: Network) -> LinkedSystem:
    """Link with loop unrolling disabled, reproducing the conservative
    compiler of the paper for which the fixed-bound loops become
    data-dependent choices and the net is rejected as un-schedulable."""
    compiled: Dict[str, object] = {
        name: compile_process(process, max_unroll=0)
        for name, process in network.processes.items()
    }
    return link(network, compiled=compiled)  # type: ignore[arg-type]
