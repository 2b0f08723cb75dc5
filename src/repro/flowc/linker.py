"""Linking: build a single Petri net from the per-process nets (Section 3.2).

The compiler gives every declared port a place.  Linking unites the process
nets in one copy (:func:`~repro.petrinet.net.merge_nets`) with each channel's
reader port place merged into its writer's: a channel's place is its
writer's port place, carrying the channel name and bound.  Environment ports
get source / sink transitions:

* an environment input port receives a *source* transition, marked
  controllable or uncontrollable per the netlist declaration;
* an environment output port receives a *sink* transition.

The resulting net, for FlowC specifications without SELECT, is unique-choice
(Section 3.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.flowc.ast_nodes import Declaration
from repro.flowc.compiler import CompiledProcess, compile_process
from repro.flowc.netlist import Network, PortRef
from repro.petrinet.net import PetriNet, SourceKind, merge_nets


@dataclass
class LinkedSystem:
    """The output of linking: one Petri net plus the symbol tables needed by
    scheduling, code generation and simulation."""

    network: Network
    net: PetriNet
    # channel name -> place name in the linked net
    channel_places: Dict[str, str] = field(default_factory=dict)
    # environment port ref -> its source/sink transition
    environment_transitions: Dict[PortRef, str] = field(default_factory=dict)
    # process name -> initial control place
    initial_places: Dict[str, str] = field(default_factory=dict)
    # process name -> hoisted declarations
    declarations: Dict[str, List[Declaration]] = field(default_factory=dict)
    # (process, port) -> place name in the linked net
    port_place_of: Dict[Tuple[str, str], str] = field(default_factory=dict)

    @property
    def uncontrollable_source_transitions(self) -> List[str]:
        return self.net.uncontrollable_sources()

    def channel_of_place(self, place: str) -> Optional[str]:
        for channel, name in self.channel_places.items():
            if name == place:
                return channel
        return None


def link(
    network: Network,
    *,
    compiled: Optional[Mapping[str, CompiledProcess]] = None,
) -> LinkedSystem:
    """Compile every process of ``network`` and link them into one net.

    ``compiled`` may supply pre-compiled processes (keyed by process name);
    missing ones are compiled on the fly.  The compiled nets are copied,
    never changed.
    """
    network.validate()
    processes = {
        name: compiled[name] if compiled and name in compiled else compile_process(process)
        for name, process in network.processes.items()
    }
    port_place_of = {
        (name, port): place
        for name, cp in processes.items()
        for port, place in cp.port_places.items()
    }
    channel_places: Dict[str, str] = {}
    identify: Dict[str, str] = {}  # reader port place -> writer port place
    for channel in network.channels:
        writer = port_place_of[(channel.source.process, channel.source.port)]
        reader = (channel.target.process, channel.target.port)
        identify[port_place_of[reader]] = writer
        port_place_of[reader] = writer
        channel_places[channel.name] = writer

    net = merge_nets((cp.net for cp in processes.values()), network.name, identify=identify)
    for channel in network.channels:
        place = net.places[channel_places[channel.name]]
        place.channel = channel.name
        place.bound = channel.bound
        place.process = None
    system = LinkedSystem(
        network=network,
        net=net,
        channel_places=channel_places,
        initial_places={name: cp.initial_place for name, cp in processes.items()},
        declarations={name: list(cp.declarations) for name, cp in processes.items()},
        port_place_of=port_place_of,
    )

    for ref, env in network.environment_inputs.items():
        source_kind = (
            SourceKind.CONTROLLABLE if env.controllable else SourceKind.UNCONTROLLABLE
        )
        transition = f"src.{ref.process}.{ref.port}"
        net.add_transition(transition, source_kind=source_kind, process=None)
        net.add_arc(transition, port_place_of[(ref.process, ref.port)], env.rate)
        system.environment_transitions[ref] = transition

    for ref, env in network.environment_outputs.items():
        transition = f"sink.{ref.process}.{ref.port}"
        net.add_transition(transition, is_sink=True, process=None)
        net.add_arc(port_place_of[(ref.process, ref.port)], transition, env.rate)
        system.environment_transitions[ref] = transition

    net.validate()
    return system
