"""The divisors example of Figure 1.

The process reads a number from port ``in``, computes all its divisors,
writes the greatest one to ``max`` and every divisor to ``all``.  It is the
paper's running example for compilation (Figure 3) and a convenient system
for end-to-end tests: the environment port ``in`` is uncontrollable, ``max``
and ``all`` are primary outputs.
"""

from __future__ import annotations


from repro.flowc.linker import LinkedSystem, link
from repro.flowc.netlist import Network


DIVISORS_SOURCE = """
PROCESS divisors (In DPORT in, Out DPORT max, Out DPORT all) {
    int n, i;
    while (1) {
        READ_DATA(in, &n, 1);
        i = n / 2;
        while (n % i != 0)
            i--;
        WRITE_DATA(max, i, 1);
        WRITE_DATA(all, i, 1);
        while (i > 1) {
            i--;
            if (n % i == 0)
                WRITE_DATA(all, i, 1);
        }
    }
}
"""


def build_divisors_network(*, name: str = "divisors_system") -> Network:
    """The one-process network of Figure 1 with its environment ports."""
    network = Network(name=name)
    network.add_processes_from_source(DIVISORS_SOURCE)
    network.declare_input("divisors", "in", controllable=False)
    network.declare_output("divisors", "max")
    network.declare_output("divisors", "all")
    return network


def build_divisors_system() -> LinkedSystem:
    """Compile and link the divisors network into a single Petri net."""
    return link(build_divisors_network())


def reference_divisors(n: int) -> list[int]:
    """Pure-Python reference: greatest divisor first, then all divisors < n
    in decreasing order (the order the process emits them on ``all``)."""
    if n < 2:
        return []
    divisors = [d for d in range(n // 2, 0, -1) if n % d == 0]
    return divisors
