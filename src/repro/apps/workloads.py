"""Synthetic workload generators for property tests and scaling benchmarks.

These builders produce parametric FlowC networks and Petri nets whose
schedulability properties are known by construction, so property-based tests
can exercise the compiler / scheduler / code generator over a family of inputs
rather than a handful of hand-picked examples.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.flowc.netlist import Network
from repro.petrinet.net import PetriNet, SourceKind, merge_nets


def producer_consumer_source(items: int, *, burst: int = 1) -> str:
    """A two-process producer/consumer system moving ``items`` values per event.

    The producer sends ``items`` values in bursts of ``burst``; the consumer
    reads them one at a time and emits a checksum.
    """
    if items % burst != 0:
        raise ValueError("items must be a multiple of burst")
    bursts = items // burst
    return f"""
PROCESS producer (In DPORT trigger, Out DPORT data) {{
    int t, i, j, buf[{burst}];
    while (1) {{
        READ_DATA(trigger, &t, 1);
        for (i = 0; i < {bursts}; i++) {{
            j = 0;
            while (j < {burst}) {{
                buf[j] = (t + i * {burst} + j) % 97;
                j++;
            }}
            WRITE_DATA(data, buf, {burst});
        }}
    }}
}}

PROCESS consumer (In DPORT data, Out DPORT sum) {{
    int i, v, acc;
    while (1) {{
        acc = 0;
        for (i = 0; i < {items}; i++) {{
            READ_DATA(data, &v, 1);
            acc = (acc + v) % 9973;
        }}
        WRITE_DATA(sum, acc, 1);
    }}
}}
"""


def build_producer_consumer_network(items: int = 8, *, burst: int = 1) -> Network:
    """Producer/consumer network with an uncontrollable trigger."""
    network = Network(name=f"prodcons_{items}_{burst}")
    network.add_processes_from_source(producer_consumer_source(items, burst=burst))
    network.connect("producer", "data", "consumer", "data", name="data")
    network.declare_input("producer", "trigger", controllable=False)
    network.declare_output("consumer", "sum")
    return network


def pipeline_source(stages: int, items: int) -> str:
    """A linear pipeline of ``stages`` identical transform processes."""
    processes: List[str] = [
        f"""
PROCESS stage0 (In DPORT trigger, Out DPORT out0) {{
    int t, i;
    while (1) {{
        READ_DATA(trigger, &t, 1);
        for (i = 0; i < {items}; i++)
            WRITE_DATA(out0, (t + i) % 251, 1);
    }}
}}
"""
    ]
    for stage in range(1, stages):
        processes.append(
            f"""
PROCESS stage{stage} (In DPORT in{stage}, Out DPORT out{stage}) {{
    int i, v;
    while (1) {{
        for (i = 0; i < {items}; i++) {{
            READ_DATA(in{stage}, &v, 1);
            v = (v * 3 + {stage}) % 251;
            WRITE_DATA(out{stage}, v, 1);
        }}
    }}
}}
"""
        )
    return "\n".join(processes)


def build_pipeline_network(stages: int = 3, items: int = 4) -> Network:
    """Linear pipeline network triggered by an uncontrollable input."""
    if stages < 2:
        raise ValueError("a pipeline needs at least two stages")
    network = Network(name=f"pipeline_{stages}_{items}")
    network.add_processes_from_source(pipeline_source(stages, items))
    for stage in range(stages - 1):
        network.connect(
            f"stage{stage}", f"out{stage}", f"stage{stage + 1}", f"in{stage + 1}", name=f"ch{stage}"
        )
    network.declare_input("stage0", "trigger", controllable=False)
    network.declare_output(f"stage{stages - 1}", f"out{stages - 1}")
    return network


def random_marked_graph(
    transitions: int,
    *,
    rng: Optional[random.Random] = None,
    seed: int = 0,
    max_weight: int = 2,
    prefix: str = "",
    label: Optional[str] = None,
) -> PetriNet:
    """A random marked-graph ring driven by an uncontrollable source.

    The net has a ring of ``transitions`` choice-free transitions whose single
    program-counter token sits at the end of the ring, plus an uncontrollable
    source ``src`` feeding the first ring transition (one ring rotation per
    environment event) and random extra edges carrying one token each.  Marked
    graphs are the class for which scheduling is exactly solvable via
    T-invariants (Section 4.4); the generator is used by property tests of the
    invariant machinery and the scheduler.

    Randomness comes from the explicit ``rng`` (a :class:`random.Random`)
    when supplied; ``seed`` is only a convenience for constructing one.  The
    module-global ``random`` state is never touched, so generated nets are
    reproducible regardless of surrounding code.  ``prefix`` namespaces every
    node name (used to embed several rings in one net).
    """
    if transitions < 2:
        raise ValueError("need at least two transitions")
    if rng is None:
        rng = random.Random(seed)
        suffix = str(seed)
    else:
        suffix = "rng"
    net = PetriNet(name=label or f"marked_graph_{transitions}_{suffix}")
    names = [f"{prefix}t{i}" for i in range(transitions)]
    net.add_transition(f"{prefix}src", source_kind=SourceKind.UNCONTROLLABLE)
    for name in names:
        net.add_transition(name)
    net.add_place(f"{prefix}p_src")
    net.add_arc(f"{prefix}src", f"{prefix}p_src")
    net.add_arc(f"{prefix}p_src", names[0])
    # a ring of transitions; its token parks at the last place so t0 only
    # needs the source token to start a rotation
    for i in range(transitions):
        place = f"{prefix}p_ring_{i}"
        tokens = 1 if i == transitions - 1 else 0
        source = names[i]
        target = names[(i + 1) % transitions]
        net.add_place(place, tokens)
        net.add_arc(source, place)
        net.add_arc(place, target)
    # extra random forward edges (with a token so they cannot deadlock the ring)
    extra_edges = rng.randint(0, transitions)
    for j in range(extra_edges):
        a = rng.randrange(transitions)
        b = rng.randrange(transitions)
        if a == b:
            continue
        place = f"{prefix}p_extra_{j}"
        net.add_place(place, 1)
        net.add_arc(names[a], place)
        net.add_arc(place, names[b])
    return net


def random_choice_net(
    branch_length: int = 3,
    *,
    rng: Optional[random.Random] = None,
    seed: int = 0,
) -> PetriNet:
    """A data-dependent choice diamond feeding a consumer chain.

    An uncontrollable ``src`` marks a choice place whose two successor
    branches form one *equal conflict set* (identical presets, so the
    environment resolves the branch): each branch walks a random-length
    transition chain, emits a random-but-branch-independent number of tokens
    into a channel, and returns the chooser's program counter.  A consumer
    drains the channel one token (or, sometimes, two) at a time.

    The family exercises exactly the scheduler paths the single-ECS marked
    graphs cannot: multi-transition ECSs (EP_ECS must find entering points
    through *both* branches), nodes with several enabled ECSs (the one-step
    lookahead), weighted arcs, and -- when the
    drawn emission/consumption counts do not divide evenly -- schedules that
    fail, which the differential harness pins too.  Randomness follows the
    same explicit-``rng`` contract as :func:`random_marked_graph`.
    """
    if branch_length < 1:
        raise ValueError("branches need at least one transition")
    if rng is None:
        rng = random.Random(seed)
        suffix = str(seed)
    else:
        suffix = "rng"
    net = PetriNet(name=f"choice_net_{branch_length}_{suffix}")
    net.add_transition("src", source_kind=SourceKind.UNCONTROLLABLE)
    net.add_place("p_src")
    net.add_arc("src", "p_src")
    net.add_place("p_pc", 1)
    net.add_place("ch")
    emits = rng.randint(1, 2)
    # mostly a unit read; sometimes a matching burst read, rarely an
    # oversized one (emission and consumption then disagree -> harder or
    # unschedulable searches, deliberately included)
    consume_weight = rng.choice((1, 1, 1, emits, 3))
    for branch in (0, 1):
        length = rng.randint(1, branch_length)
        previous: Optional[str] = None
        for step in range(length):
            transition = f"b{branch}_t{step}"
            net.add_transition(transition, process="chooser")
            if step == 0:
                net.add_arc("p_src", transition)
                net.add_arc("p_pc", transition)
            else:
                assert previous is not None
                net.add_arc(previous, transition)
            if step == length - 1:
                net.add_arc(transition, "p_pc")
                net.add_arc(transition, "ch", emits)
            else:
                place = f"b{branch}_p{step}"
                net.add_place(place)
                net.add_arc(transition, place)
                previous = place
    net.add_place("p_cons_pc", 1)
    net.add_transition("cons", process="consumer")
    net.add_arc("ch", "cons", consume_weight)
    net.add_arc("p_cons_pc", "cons")
    net.add_arc("cons", "p_cons_pc")
    return net


def random_multi_source_net(
    sources: int,
    transitions: int,
    *,
    rng: Optional[random.Random] = None,
    seed: int = 0,
) -> PetriNet:
    """Several disjoint marked-graph rings, one uncontrollable source each.

    Every ring is independently single-source schedulable (it is a strongly
    connected marked graph), so the net has exactly ``sources`` uncontrollable
    sources (``r0.src`` .. ``r{sources-1}.src``) whose EP searches share no
    places.  Ring sizes are drawn from the shared ``rng`` so the per-source
    searches differ in cost.
    """
    if sources < 1:
        raise ValueError("need at least one source")
    if rng is None:
        rng = random.Random(seed)
        suffix = str(seed)
    else:
        suffix = "rng"
    rings = []
    for index in range(sources):
        size = max(2, transitions + rng.randint(-1, 1))
        rings.append(
            random_marked_graph(
                size,
                rng=rng,
                prefix=f"r{index}.",
                label=f"ring{index}",
            )
        )
    return merge_nets(rings, name=f"multi_source_{sources}_{transitions}_{suffix}")


# ---------------------------------------------------------------------------
# determinism contract
# ---------------------------------------------------------------------------

#: Every generator family of this module under a uniform ``seed -> PetriNet``
#: signature.  The registry is the module's determinism contract: same seed,
#: same bytes, in any process.  All randomness flows through an explicit
#: ``random.Random(seed)`` and nothing depends on dict/set iteration order or
#: on ``PYTHONHASHSEED``; ``tests/test_generator_determinism.py`` pins this
#: by comparing :func:`generator_digest` across two fresh subprocesses with
#: different hash seeds.
GENERATORS = {
    "producer_consumer": lambda seed: _linked_net(
        build_producer_consumer_network(4 + 2 * (seed % 3), burst=1 + seed % 2)
    ),
    "pipeline": lambda seed: _linked_net(
        build_pipeline_network(2 + seed % 3, 1 + seed % 4)
    ),
    "marked_graph": lambda seed: random_marked_graph(4 + seed % 4, seed=seed),
    "choice": lambda seed: random_choice_net(2 + seed % 3, seed=seed),
    "multi_source": lambda seed: random_multi_source_net(
        2 + seed % 2, 3 + seed % 2, seed=seed
    ),
}


def _linked_net(network: Network) -> PetriNet:
    from repro.flowc.linker import link

    return link(network).net


def generator_digest(name: str, seed: int) -> str:
    """Structural fingerprint of one registered generator's output.

    The byte string two processes must agree on for the determinism test;
    covers everything the scheduler reads (places, arcs, weights, markings,
    source kinds, bounds).
    """
    from repro.petrinet.fingerprint import structural_fingerprint

    if name not in GENERATORS:
        raise KeyError(f"unknown generator {name!r} (have {sorted(GENERATORS)})")
    return structural_fingerprint(GENERATORS[name](seed))
