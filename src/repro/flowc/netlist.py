"""Network (netlist) description: processes, channels, environment ports.

A system function is a network of FlowC processes.  Channels are
point-to-point and uni-directional: each connects an output port of one
process to an input port of another, optionally with a user-defined bound
(Section 3).  Ports left unconnected communicate with the environment; input
environment ports are declared *controllable* or *uncontrollable*
(Section 3.2), output environment ports are always accepted by the
environment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.flowc.ast_nodes import Process
from repro.flowc.parser import parse_program


class NetworkError(Exception):
    """Raised for inconsistent netlists (unknown ports, double connections...)."""


@dataclass(frozen=True)
class PortRef:
    """Reference to a port of a process: ``process.port``."""

    process: str
    port: str

    def __str__(self) -> str:
        return f"{self.process}.{self.port}"


@dataclass(frozen=True)
class Channel:
    """A point-to-point FIFO channel between two ports."""

    name: str
    source: PortRef
    target: PortRef
    bound: Optional[int] = None

    def __str__(self) -> str:
        suffix = f" [bound={self.bound}]" if self.bound is not None else ""
        return f"{self.name}: {self.source} -> {self.target}{suffix}"


@dataclass(frozen=True)
class EnvironmentPort:
    """A primary (environment) port of the system.

    ``rate`` is the number of tokens produced/consumed by one environment
    interaction (the weight of the source/sink arc).  ``controllable`` is
    only meaningful for inputs.
    """

    ref: PortRef
    direction: str  # "input" or "output"
    controllable: bool = False
    rate: int = 1


@dataclass
class Network:
    """A network of FlowC processes with channels and environment ports."""

    name: str = "system"
    processes: Dict[str, Process] = field(default_factory=dict)
    channels: List[Channel] = field(default_factory=list)
    environment_inputs: Dict[PortRef, EnvironmentPort] = field(default_factory=dict)
    environment_outputs: Dict[PortRef, EnvironmentPort] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_process(self, process: Process) -> None:
        if process.name in self.processes:
            raise NetworkError(f"duplicate process {process.name!r}")
        self.processes[process.name] = process

    def add_processes_from_source(self, source: str) -> List[Process]:
        processes = parse_program(source)
        for process in processes:
            self.add_process(process)
        return processes

    def _resolve(self, process: str, port: str, direction: str) -> PortRef:
        if process not in self.processes:
            raise NetworkError(f"unknown process {process!r}")
        declaration = None
        for candidate in self.processes[process].ports:
            if candidate.name == port:
                declaration = candidate
                break
        if declaration is None:
            raise NetworkError(f"process {process!r} has no port {port!r}")
        if direction == "output" and not declaration.is_output:
            raise NetworkError(f"{process}.{port} is not an output port")
        if direction == "input" and not declaration.is_input:
            raise NetworkError(f"{process}.{port} is not an input port")
        return PortRef(process, port)

    def connect(
        self,
        source_process: str,
        source_port: str,
        target_process: str,
        target_port: str,
        *,
        name: Optional[str] = None,
        bound: Optional[int] = None,
    ) -> Channel:
        """Add a channel from an output port to an input port."""
        source = self._resolve(source_process, source_port, "output")
        target = self._resolve(target_process, target_port, "input")
        for channel in self.channels:
            if channel.source == source:
                raise NetworkError(f"output port {source} is already connected")
            if channel.target == target:
                raise NetworkError(f"input port {target} is already connected")
        channel = Channel(
            name=name or f"{source_process}_{source_port}__{target_process}_{target_port}",
            source=source,
            target=target,
            bound=bound,
        )
        self.channels.append(channel)
        return channel

    def declare_input(
        self,
        process: str,
        port: str,
        *,
        controllable: bool = False,
        rate: int = 1,
    ) -> EnvironmentPort:
        """Declare an unconnected input port as a primary input."""
        ref = self._resolve(process, port, "input")
        env = EnvironmentPort(ref=ref, direction="input", controllable=controllable, rate=rate)
        self.environment_inputs[ref] = env
        return env

    def declare_output(self, process: str, port: str, *, rate: int = 1) -> EnvironmentPort:
        """Declare an unconnected output port as a primary output."""
        ref = self._resolve(process, port, "output")
        env = EnvironmentPort(ref=ref, direction="output", controllable=False, rate=rate)
        self.environment_outputs[ref] = env
        return env

    # ------------------------------------------------------------------
    # queries / checks
    # ------------------------------------------------------------------
    def connected_ports(self) -> Dict[PortRef, Channel]:
        mapping: Dict[PortRef, Channel] = {}
        for channel in self.channels:
            mapping[channel.source] = channel
            mapping[channel.target] = channel
        return mapping

    def unconnected_ports(self) -> List[Tuple[PortRef, str]]:
        """Ports of all processes that have no channel, with their direction."""
        connected = set(self.connected_ports())
        result: List[Tuple[PortRef, str]] = []
        for process in self.processes.values():
            for port in process.ports:
                ref = PortRef(process.name, port.name)
                if ref not in connected:
                    result.append((ref, "input" if port.is_input else "output"))
        return result

    def validate(self) -> None:
        """Check that every unconnected port has an environment declaration
        and that every declared environment port is indeed unconnected."""
        connected = set(self.connected_ports())
        for ref in list(self.environment_inputs) + list(self.environment_outputs):
            if ref in connected:
                raise NetworkError(f"environment port {ref} is also connected by a channel")
        for ref, direction in self.unconnected_ports():
            if direction == "input" and ref not in self.environment_inputs:
                raise NetworkError(
                    f"unconnected input port {ref} has no environment declaration "
                    "(declare_input with controllable=True/False)"
                )
            if direction == "output" and ref not in self.environment_outputs:
                raise NetworkError(
                    f"unconnected output port {ref} has no environment declaration (declare_output)"
                )

    def describe(self) -> str:
        """Human-readable summary of the network."""
        lines = [f"network {self.name}"]
        for process in self.processes.values():
            lines.append(f"  process {process.name} ({len(process.ports)} ports)")
        for channel in self.channels:
            lines.append(f"  channel {channel}")
        for env in self.environment_inputs.values():
            kind = "controllable" if env.controllable else "uncontrollable"
            lines.append(f"  input {env.ref} ({kind}, rate={env.rate})")
        for env in self.environment_outputs.values():
            lines.append(f"  output {env.ref} (rate={env.rate})")
        return "\n".join(lines)
