"""Seeded scenario specifications and their FlowC realisations.

A :class:`ScenarioSpec` is a *pure-data* description of one corpus case: a
set of subsystems (each a DAG of FlowC processes rooted at one uncontrollable
trigger) with per-channel token rates, burst sizes, optional data-dependent
branches and optional declared channel bounds.  Everything downstream -- the
FlowC program text, the :class:`~repro.flowc.netlist.Network`, the stimulus
script and the expected-properties manifest -- is derived deterministically
from the spec alone, with no hidden RNG state.  That is what makes corpus
cases reproducible (same spec => byte-identical program) and *shrinkable*
(the reducers in :mod:`repro.corpus.shrink` transform specs, not text).

Token-rate consistency is maintained by construction: every channel carries
``items`` tokens per environment event, the producer fires ``repetitions``
times per event and therefore writes ``items / repetitions`` tokens per
firing (and symmetrically for the consumer), so every case returns to its
initial marking after each event -- the paper's schedulability precondition.
The deliberate exception is :attr:`EdgeSpec.arm`: an arm-restricted channel
is written on only one arm of its producer's data-dependent branch, so a
consumer joining both arm channels starves on every run in which the
environment keeps resolving the choice the other way -- the paper's
Figure 4 non-schedulable situation, used for expected-failure cases.

Emission note: generated bodies are *straight-line* (reads and writes are
unrolled at emission time rather than wrapped in constant-bound ``for``
loops).  The leader rules of Section 3.1 make every ``READ_DATA`` and every
statement after a ``WRITE_DATA`` a leader, so straight-line bodies compile to
nets whose transitions each carry one port operation -- the granularity every
hand-written example in this repository exhibits.  Loop-shaped emission would
instead surround each port operation with code-only transitions, roughly
tripling every control cycle and, with it, the depth of the EP search.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from math import gcd
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.flowc.netlist import Network

#: Modulus used by generated compute phases; prime so value streams mix well.
_ACC_MOD = 9973
#: Modulus used by generated data values (fits the paper's byte-ish data).
_VAL_MOD = 251


@dataclass(frozen=True)
class ProcessSpec:
    """One FlowC process of a scenario.

    ``repetitions`` is the number of main-loop iterations the process runs
    per environment event (its entry in the repetition vector).  ``branch``
    wraps the write phase in a data-dependent ``if``/``else`` whose arms
    write the same token counts but different values (unless an outgoing
    edge is arm-restricted, see :attr:`EdgeSpec.arm`).
    """

    name: str
    repetitions: int = 1
    branch: bool = False
    const_a: int = 3
    const_b: int = 7


@dataclass(frozen=True)
class EdgeSpec:
    """One point-to-point channel between two processes of a subsystem.

    ``items`` tokens flow per environment event; ``write_burst`` /
    ``read_burst`` are the tokens moved per port operation (arc weights).
    ``feedback`` marks a backward acknowledge channel: the producer writes
    it before its forward writes and the consumer reads it after them (the
    Section 7.2 false-path shape).  ``bound`` is a declared channel bound
    carried into the linked net (None leaves the channel unbounded).
    ``arm`` restricts the writes to one arm of the producer's branch
    (requires ``branch=True`` on the producer); such channels deliberately
    break the token balance, producing expected-unschedulable cases.
    """

    name: str
    source: str
    target: str
    items: int = 1
    write_burst: int = 1
    read_burst: int = 1
    bound: Optional[int] = None
    feedback: bool = False
    arm: Optional[int] = None


@dataclass(frozen=True)
class SubsystemSpec:
    """A connected process DAG served by one uncontrollable trigger."""

    trigger: str
    processes: Tuple[ProcessSpec, ...]
    edges: Tuple[EdgeSpec, ...] = ()


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete corpus case: subsystems plus the stimulus length."""

    seed: int
    family: str
    subsystems: Tuple[SubsystemSpec, ...]
    stimulus_length: int = 2
    name: str = ""

    def size(self) -> int:
        """Number of processes -- the size metric reported by the shrinker."""
        return sum(len(sub.processes) for sub in self.subsystems)

    def label(self) -> str:
        return self.name or f"{self.family}_{self.seed}"


class SpecError(ValueError):
    """Raised when a scenario spec is internally inconsistent."""


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def check_spec(spec: ScenarioSpec) -> None:
    """Validate rate consistency and topology of ``spec`` (raises SpecError)."""
    if not spec.subsystems:
        raise SpecError("a scenario needs at least one subsystem")
    if spec.stimulus_length < 1:
        raise SpecError("stimulus_length must be >= 1")
    seen: set[str] = set()
    for sub in spec.subsystems:
        names = [proc.name for proc in sub.processes]
        if len(set(names)) != len(names):
            raise SpecError(f"duplicate process names in subsystem {sub.trigger!r}")
        overlap = seen & set(names)
        if overlap:
            raise SpecError(f"process names shared across subsystems: {sorted(overlap)}")
        seen |= set(names)
        procs = {proc.name: proc for proc in sub.processes}
        if sub.trigger not in procs:
            raise SpecError(f"trigger process {sub.trigger!r} is not in the subsystem")
        if procs[sub.trigger].repetitions != 1:
            raise SpecError(f"trigger process {sub.trigger!r} must have repetitions == 1")
        edge_names = [edge.name for edge in sub.edges]
        if len(set(edge_names)) != len(edge_names):
            raise SpecError(f"duplicate edge names in subsystem {sub.trigger!r}")
        for edge in sub.edges:
            for endpoint in (edge.source, edge.target):
                if endpoint not in procs:
                    raise SpecError(f"edge {edge.name!r} references unknown process {endpoint!r}")
            if edge.source == edge.target:
                raise SpecError(f"edge {edge.name!r} is a self loop")
            if edge.arm is not None:
                if edge.arm not in (0, 1):
                    raise SpecError(f"edge {edge.name!r}: arm must be 0, 1 or None")
                if not procs[edge.source].branch:
                    raise SpecError(
                        f"edge {edge.name!r} is arm-restricted but {edge.source!r} has no branch"
                    )
                if edge.feedback:
                    raise SpecError(f"edge {edge.name!r}: feedback edges cannot be arm-restricted")
            for role, burst, rep in (
                ("write", edge.write_burst, procs[edge.source].repetitions),
                ("read", edge.read_burst, procs[edge.target].repetitions),
            ):
                per_firing, remainder = divmod(edge.items, rep)
                if remainder:
                    raise SpecError(
                        f"edge {edge.name!r}: items={edge.items} not divisible by "
                        f"{role}r repetitions {rep}"
                    )
                if per_firing % burst:
                    raise SpecError(
                        f"edge {edge.name!r}: {role}_burst={burst} does not divide "
                        f"the {per_firing} items moved per firing"
                    )
        # every non-trigger process must be reachable from the trigger along
        # forward edges, otherwise it would run unboundedly often
        forward = [edge for edge in sub.edges if not edge.feedback]
        reachable = {sub.trigger}
        frontier = [sub.trigger]
        while frontier:
            current = frontier.pop()
            for edge in forward:
                if edge.source == current and edge.target not in reachable:
                    reachable.add(edge.target)
                    frontier.append(edge.target)
        unreachable = set(procs) - reachable
        if unreachable:
            raise SpecError(
                f"processes unreachable from trigger {sub.trigger!r}: {sorted(unreachable)}"
            )


# ---------------------------------------------------------------------------
# derived wiring
# ---------------------------------------------------------------------------


def _in_edges(sub: SubsystemSpec, proc: str) -> List[EdgeSpec]:
    return [edge for edge in sub.edges if edge.target == proc]


def _out_edges(sub: SubsystemSpec, proc: str) -> List[EdgeSpec]:
    return [edge for edge in sub.edges if edge.source == proc]


def trigger_port(proc: str) -> str:
    return f"ev_{proc}"


def output_port(proc: str) -> str:
    return f"out_{proc}"


def _sink_processes(sub: SubsystemSpec) -> List[str]:
    """Processes with no forward out-edge; they write an environment output."""
    forward_sources = {edge.source for edge in sub.edges if not edge.feedback}
    return [proc.name for proc in sub.processes if proc.name not in forward_sources]


def _max_burst(sub: SubsystemSpec, proc: str) -> int:
    bursts = [1]
    for edge in _in_edges(sub, proc):
        bursts.append(edge.read_burst)
    for edge in _out_edges(sub, proc):
        bursts.append(edge.write_burst)
    return max(bursts)


# ---------------------------------------------------------------------------
# FlowC emission (straight-line, see the module docstring)
# ---------------------------------------------------------------------------


def _emit_read(
    lines: List[str],
    edge: EdgeSpec,
    per_firing: int,
    const_a: int,
    *,
    first: bool,
    const_b: int,
    indent: str = "        ",
) -> bool:
    """Unrolled reads of one in-edge; returns False once ``acc`` is seeded."""
    port = f"i_{edge.name}"
    if edge.read_burst == 1:
        for _ in range(per_firing):
            lines.append(f"{indent}READ_DATA({port}, &v, 1);")
            if first:
                lines.append(f"{indent}acc = ({const_b} + v) % {_ACC_MOD};")
                first = False
            else:
                lines.append(f"{indent}acc = (acc * {const_a} + v) % {_ACC_MOD};")
    else:
        for _ in range(per_firing // edge.read_burst):
            lines.append(f"{indent}READ_DATA({port}, buf, {edge.read_burst});")
            for j in range(edge.read_burst):
                if first:
                    lines.append(f"{indent}acc = ({const_b} + buf[{j}]) % {_ACC_MOD};")
                    first = False
                else:
                    lines.append(f"{indent}acc = (acc * {const_a} + buf[{j}]) % {_ACC_MOD};")
    return first


def _emit_write(
    lines: List[str],
    port: str,
    count: int,
    burst: int,
    mult: int,
    add: int,
    indent: str,
) -> None:
    """Unrolled writes of ``count`` items in chunks of ``burst``."""
    if burst == 1:
        for index in range(count):
            lines.append(
                f"{indent}WRITE_DATA({port}, (acc * {mult} + {index} * {add}) % {_VAL_MOD}, 1);"
            )
    else:
        for call in range(count // burst):
            for j in range(burst):
                lines.append(f"{indent}buf[{j}] = (acc * {mult} + {call * burst + j} * {add}) % {_VAL_MOD};")
            lines.append(f"{indent}WRITE_DATA({port}, buf, {burst});")


def _emit_write_phase(
    lines: List[str],
    sub: SubsystemSpec,
    proc: ProcessSpec,
    *,
    arm: int,
    indent: str,
) -> None:
    """All forward writes of ``proc`` (channel writes + environment output).

    ``arm`` selects the value constants so the two branch arms compute
    different data; arm-restricted edges are emitted on their arm only.
    """
    mult = proc.const_a + arm * 2 + 1
    add = proc.const_b + arm + 1
    for edge in _out_edges(sub, proc.name):
        if edge.feedback:
            continue
        if edge.arm is not None and edge.arm != arm:
            continue
        count = edge.items // proc.repetitions
        _emit_write(lines, f"o_{edge.name}", count, edge.write_burst, mult, add, indent)
    if proc.name in _sink_processes(sub):
        lines.append(f"{indent}WRITE_DATA({output_port(proc.name)}, (acc * {mult}) % {_VAL_MOD}, 1);")


def emit_process(sub: SubsystemSpec, proc: ProcessSpec) -> str:
    """The FlowC source text of one process of ``sub``."""
    ports: List[str] = []
    if proc.name == sub.trigger:
        ports.append(f"In DPORT {trigger_port(proc.name)}")
    for edge in _in_edges(sub, proc.name):
        ports.append(f"In DPORT i_{edge.name}")
    for edge in _out_edges(sub, proc.name):
        ports.append(f"Out DPORT o_{edge.name}")
    if proc.name in _sink_processes(sub):
        ports.append(f"Out DPORT {output_port(proc.name)}")

    burst = _max_burst(sub, proc.name)
    decls = "int v, acc"
    if burst > 1:
        decls += f", buf[{burst}]"
    lines = [f"PROCESS {proc.name} ({', '.join(ports)}) {{", f"    {decls};", "    while (1) {"]
    # the first read seeds acc from const_b, so no code-only transition is
    # needed ahead of the first port operation
    first = True
    if proc.name == sub.trigger:
        lines.append(f"        READ_DATA({trigger_port(proc.name)}, &v, 1);")
        lines.append(f"        acc = ({proc.const_b} + v) % {_ACC_MOD};")
        first = False
    for edge in _in_edges(sub, proc.name):
        if edge.feedback:
            continue
        first = _emit_read(
            lines,
            edge,
            edge.items // proc.repetitions,
            proc.const_a,
            first=first,
            const_b=proc.const_b,
        )
    # feedback writes come before the forward writes (the consumer of the
    # forward data acknowledges what it has already absorbed)
    for edge in _out_edges(sub, proc.name):
        if not edge.feedback:
            continue
        count = edge.items // proc.repetitions
        _emit_write(lines, f"o_{edge.name}", count, edge.write_burst, proc.const_a, 1, "        ")
    # forward writes, optionally under a data-dependent branch
    if proc.branch:
        lines.append("        if ((acc % 2) == 0) {")
        _emit_write_phase(lines, sub, proc, arm=0, indent="            ")
        lines.append("        } else {")
        _emit_write_phase(lines, sub, proc, arm=1, indent="            ")
        lines.append("        }")
    else:
        _emit_write_phase(lines, sub, proc, arm=0, indent="        ")
    # feedback reads close the loop iteration
    for edge in _in_edges(sub, proc.name):
        if not edge.feedback:
            continue
        first = _emit_read(
            lines,
            edge,
            edge.items // proc.repetitions,
            proc.const_a,
            first=first,
            const_b=proc.const_b,
        )
    lines.append("    }")
    lines.append("}")
    return "\n".join(lines)


def emit_program(spec: ScenarioSpec) -> str:
    """The full FlowC program of a scenario (all subsystems, all processes)."""
    chunks: List[str] = []
    for sub in spec.subsystems:
        for proc in sub.processes:
            chunks.append(emit_process(sub, proc))
    return "\n\n".join(chunks) + "\n"


# ---------------------------------------------------------------------------
# network assembly / manifest
# ---------------------------------------------------------------------------


def _stable_digest(*parts: object) -> int:
    """A 32-bit digest that is stable across processes (unlike ``hash``)."""
    payload = "\x1f".join(str(part) for part in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:4], "big")


def stimulus_for(spec: ScenarioSpec) -> Dict[str, List[int]]:
    """The shared input script: per-trigger values derived from the seed.

    Values are drawn from a hash of (seed, port, index) so truncating
    ``stimulus_length`` (a shrink step) keeps the surviving prefix identical.
    """
    stimulus: Dict[str, List[int]] = {}
    for sub in spec.subsystems:
        port = trigger_port(sub.trigger)
        stimulus[port] = [
            _stable_digest(spec.seed, port, index) % 97
            for index in range(spec.stimulus_length)
        ]
    return stimulus


def build_network(spec: ScenarioSpec) -> Network:
    """Assemble the :class:`Network` of a scenario (validated)."""
    check_spec(spec)
    network = Network(name=spec.label())
    network.add_processes_from_source(emit_program(spec))
    for sub in spec.subsystems:
        for edge in sub.edges:
            network.connect(
                edge.source,
                f"o_{edge.name}",
                edge.target,
                f"i_{edge.name}",
                name=edge.name,
                bound=edge.bound,
            )
        network.declare_input(sub.trigger, trigger_port(sub.trigger), controllable=False)
        for proc in _sink_processes(sub):
            network.declare_output(proc, output_port(proc))
    network.validate()
    return network


def expected_schedulable(spec: ScenarioSpec) -> bool:
    """True unless an arm-restricted channel unbalances some branch."""
    return all(
        edge.arm is None for sub in spec.subsystems for edge in sub.edges
    )


def build_manifest(spec: ScenarioSpec) -> Dict[str, Any]:
    """The expected-properties manifest checked by the differential harness."""
    axes = {
        "multirate": any(
            proc.repetitions > 1
            for sub in spec.subsystems
            for proc in sub.processes
        )
        or any(edge.items > 1 for sub in spec.subsystems for edge in sub.edges),
        "branching": any(
            proc.branch for sub in spec.subsystems for proc in sub.processes
        ),
        "feedback": any(
            edge.feedback for sub in spec.subsystems for edge in sub.edges
        ),
        "bursts": any(
            edge.write_burst > 1 or edge.read_burst > 1
            for sub in spec.subsystems
            for edge in sub.edges
        ),
        "bounded_channels": any(
            edge.bound is not None for sub in spec.subsystems for edge in sub.edges
        ),
        "multi_source": len(spec.subsystems) > 1,
    }
    return {
        "name": spec.label(),
        "seed": spec.seed,
        "family": spec.family,
        "processes": spec.size(),
        "channels": sum(len(sub.edges) for sub in spec.subsystems),
        "triggers": [trigger_port(sub.trigger) for sub in spec.subsystems],
        "source_transitions": [
            f"src.{sub.trigger}.{trigger_port(sub.trigger)}" for sub in spec.subsystems
        ],
        "outputs": sorted(
            output_port(proc)
            for sub in spec.subsystems
            for proc in _sink_processes(sub)
        ),
        "expected_schedulable": expected_schedulable(spec),
        # per-channel tokens per event: an upper bound on any legal occupancy
        "expected_channel_items": {
            edge.name: edge.items for sub in spec.subsystems for edge in sub.edges
        },
        "stimulus": stimulus_for(spec),
        "axes": axes,
    }


@dataclass
class CorpusCase:
    """A realised corpus case: spec, FlowC text, netlist, manifest."""

    spec: ScenarioSpec
    source: str
    network: Network
    manifest: Dict[str, Any]

    @property
    def name(self) -> str:
        return self.spec.label()


def build_case(spec: ScenarioSpec) -> CorpusCase:
    """Realise a scenario spec into a runnable corpus case."""
    network = build_network(spec)
    return CorpusCase(
        spec=spec,
        source=emit_program(spec),
        network=network,
        manifest=build_manifest(spec),
    )


# ---------------------------------------------------------------------------
# spec (de)serialisation -- triage files and --replay
# ---------------------------------------------------------------------------


def spec_to_dict(spec: ScenarioSpec) -> Dict[str, Any]:
    """Plain-JSON form of a spec (inverse of :func:`spec_from_dict`)."""
    return asdict(spec)


def _process_from_dict(data: Mapping[str, Any]) -> ProcessSpec:
    # Bundles written before the timing annotation was retired carry its key
    # on every process.  It never changed schedulability or traces, so replay
    # drops it; any other unknown key still fails.
    return ProcessSpec(**{key: value for key, value in data.items() if key != "wcet"})


def spec_from_dict(data: Mapping[str, Any]) -> ScenarioSpec:
    """Rebuild a :class:`ScenarioSpec` from its JSON form."""
    subsystems = tuple(
        SubsystemSpec(
            trigger=sub["trigger"],
            processes=tuple(_process_from_dict(proc) for proc in sub["processes"]),
            edges=tuple(EdgeSpec(**edge) for edge in sub["edges"]),
        )
        for sub in data["subsystems"]
    )
    return ScenarioSpec(
        seed=int(data["seed"]),
        family=str(data["family"]),
        subsystems=subsystems,
        stimulus_length=int(data.get("stimulus_length", 2)),
        name=str(data.get("name", "")),
    )


def lcm(a: int, b: int) -> int:
    """Least common multiple (used by the generator's rate balancing)."""
    return a * b // gcd(a, b)
