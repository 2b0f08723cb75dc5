"""Linking: build a single Petri net from the per-process nets (Section 3.2).

Linking merges each pair of port places connected by a channel into a single
place (the channel place), records channel bounds as place attributes, and
attaches environment source / sink transitions to unconnected ports:

* an unconnected input port receives a *source* transition, marked
  controllable or uncontrollable per the netlist declaration;
* an unconnected output port receives a *sink* transition.

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
    compiled: Dict[str, CompiledProcess] = field(default_factory=dict)
    # channel name -> place name in the linked net
    channel_places: Dict[str, str] = field(default_factory=dict)
    # environment port ref -> (place name, source/sink transition name)
    environment_places: Dict[PortRef, str] = field(default_factory=dict)
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


def _merge_port_places(
    net: PetriNet,
    keep: str,
    remove: str,
    *,
    channel: str,
    bound: Optional[int],
) -> None:
    """Merge place ``remove`` into ``keep`` (arcs and tokens), the channel's place."""
    net.merge_place(keep, remove)
    place = net.places[keep]
    place.is_port = True
    place.channel = channel
    place.bound = bound
    place.process = None


def link(
    network: Network,
    *,
    compiled: Optional[Mapping[str, CompiledProcess]] = None,
) -> LinkedSystem:
    """Compile every process of ``network`` and link them into one net.

    ``compiled`` may supply pre-compiled processes (keyed by process name);
    missing ones are compiled on the fly.
    """
    network.validate()

    compiled_processes: Dict[str, CompiledProcess] = {}
    for name, process in network.processes.items():
        if compiled and name in compiled:
            compiled_processes[name] = compiled[name]
        else:
            compiled_processes[name] = compile_process(process)

    net = merge_nets((cp.net for cp in compiled_processes.values()), name=network.name)

    system = LinkedSystem(network=network, net=net, compiled=compiled_processes)
    for name, cp in compiled_processes.items():
        system.initial_places[name] = cp.initial_place
        system.declarations[name] = list(cp.declarations)
        for port, place in cp.port_places.items():
            system.port_place_of[(name, port)] = place

    # -- merge channel port places -----------------------------------------
    for channel in network.channels:
        source_key = (channel.source.process, channel.source.port)
        target_key = (channel.target.process, channel.target.port)
        source_place = system.port_place_of.get(source_key)
        target_place = system.port_place_of.get(target_key)
        if source_place is None and target_place is None:
            # Neither side ever touches the port: the channel is dead but we
            # still materialise a place so bounds/diagnostics can refer to it.
            place_name = f"ch.{channel.name}"
            net.add_place(place_name, 0, is_port=True, channel=channel.name, bound=channel.bound)
            system.channel_places[channel.name] = place_name
            continue
        if source_place is None or target_place is None:
            present = source_place or target_place
            assert present is not None
            place = net.places[present]
            place.channel = channel.name
            place.bound = channel.bound
            place.process = None
            system.channel_places[channel.name] = present
            system.port_place_of[source_key] = present
            system.port_place_of[target_key] = present
            continue
        _merge_port_places(
            net, source_place, target_place, channel=channel.name, bound=channel.bound
        )
        system.channel_places[channel.name] = source_place
        system.port_place_of[source_key] = source_place
        system.port_place_of[target_key] = source_place

    # -- environment ports ----------------------------------------------------
    for ref, env in network.environment_inputs.items():
        place = system.port_place_of.get((ref.process, ref.port))
        if place is None:
            # the process never reads this port; create the place anyway
            place = f"env.{ref.process}.{ref.port}"
            net.add_place(place, 0, is_port=True, channel=None, process=ref.process)
            system.port_place_of[(ref.process, ref.port)] = place
        source_kind = (
            SourceKind.CONTROLLABLE if env.controllable else SourceKind.UNCONTROLLABLE
        )
        transition = f"src.{ref.process}.{ref.port}"
        net.add_transition(transition, source_kind=source_kind, process=None)
        net.add_arc(transition, place, env.rate)
        system.environment_places[ref] = place
        system.environment_transitions[ref] = transition

    for ref, env in network.environment_outputs.items():
        place = system.port_place_of.get((ref.process, ref.port))
        if place is None:
            place = f"env.{ref.process}.{ref.port}"
            net.add_place(place, 0, is_port=True, channel=None, process=ref.process)
            system.port_place_of[(ref.process, ref.port)] = place
        transition = f"sink.{ref.process}.{ref.port}"
        net.add_transition(transition, is_sink=True, process=None)
        net.add_arc(place, transition, env.rate)
        system.environment_places[ref] = place
        system.environment_transitions[ref] = transition

    net.validate()
    return system
