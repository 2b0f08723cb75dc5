"""Channel and environment-port primitives used by the simulators.

Channels carry actual data values; the number of stored items corresponds to
the token count of the channel place in the Petri net.  Reads and writes have
the blocking semantics of Section 3: a read blocks when fewer items than
requested are available, a write blocks when a bound is defined and would be
exceeded.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro.flowc.interpreter import WouldBlock


class ChannelBuffer:
    """A FIFO channel with an optional capacity (the paper's bounded channel).

    ``capacity=None`` models an unbounded channel; the scheduler guarantees
    bounded occupancy for synthesized tasks, while the baseline simulator uses
    explicit capacities to model the FIFO sizes varied in Figure 20.
    """

    def __init__(self, name: str, capacity: Optional[int] = None):
        if capacity is not None and capacity <= 0:
            raise ValueError(f"channel {name!r}: capacity must be positive")
        self.name = name
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self.total_written = 0
        self.total_read = 0
        self.max_occupancy = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def occupancy(self) -> int:
        return len(self._items)

    def space(self) -> Optional[int]:
        if self.capacity is None:
            return None
        return self.capacity - len(self._items)

    def can_write(self, nitems: int) -> bool:
        return self.capacity is None or len(self._items) + nitems <= self.capacity

    def can_read(self, nitems: int) -> bool:
        return len(self._items) >= nitems

    def write(self, values: Sequence[Any]) -> None:
        if not self.can_write(len(values)):
            raise WouldBlock(self.name, len(values), self.space() or 0)
        self._items.extend(values)
        self.total_written += len(values)
        if len(self._items) > self.max_occupancy:
            self.max_occupancy = len(self._items)

    def read(self, nitems: int) -> List[Any]:
        if not self.can_read(nitems):
            raise WouldBlock(self.name, nitems, len(self._items))
        values = [self._items.popleft() for _ in range(nitems)]
        self.total_read += nitems
        return values

    def clear(self) -> None:
        self._items.clear()


class EnvironmentSource:
    """A primary input port: a queue of stimulus values provided by the test
    bench / environment.  Reading blocks when the stimulus is exhausted."""

    def __init__(self, name: str, values: Optional[Sequence[Any]] = None):
        self.name = name
        self._pending: Deque[Any] = deque(values or [])
        self.total_consumed = 0

    def offer(self, value: Any) -> None:
        self._pending.append(value)

    def offer_many(self, values: Sequence[Any]) -> None:
        self._pending.extend(values)

    def available(self) -> int:
        return len(self._pending)

    def can_read(self, nitems: int) -> bool:
        return len(self._pending) >= nitems

    def read(self, nitems: int) -> List[Any]:
        if not self.can_read(nitems):
            raise WouldBlock(self.name, nitems, len(self._pending))
        values = [self._pending.popleft() for _ in range(nitems)]
        self.total_consumed += nitems
        return values


class EnvironmentSink:
    """A primary output port: records everything the system emits."""

    def __init__(self, name: str):
        self.name = name
        self.values: List[Any] = []

    def write(self, values: Sequence[Any]) -> None:
        self.values.extend(values)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class TraceEvent:
    """One observable I/O event: a write of ``values`` to environment port
    ``port``, stamped with a recorder-global sequence number."""

    port: str
    values: Tuple[Any, ...]
    sequence: int


class TraceRecorder:
    """Collects :class:`TraceEvent` records across all sinks of one run.

    One recorder is shared by every :class:`TracingSink` of a simulation, so
    ``events`` is the globally ordered I/O trace; ``by_channel`` projects it
    to per-channel event sequences, the normal form compared by the corpus
    differential harness (order *within* a channel is significant, global
    interleaving *across* independent channels is not).
    """

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def record(self, port: str, values: Sequence[Any]) -> TraceEvent:
        event = TraceEvent(port=port, values=tuple(values), sequence=len(self.events))
        self.events.append(event)
        return event

    def by_channel(self) -> Dict[str, List[Tuple[Any, ...]]]:
        channels: Dict[str, List[Tuple[Any, ...]]] = {}
        for event in self.events:
            channels.setdefault(event.port, []).append(event.values)
        return channels


class TracingSink(EnvironmentSink):
    """An :class:`EnvironmentSink` that also records every write as a
    :class:`TraceEvent` in a shared :class:`TraceRecorder`.

    Installed via ``replace_sink`` on either simulator; ``values`` keeps
    accumulating as usual, so ``SimulationResult.outputs`` is unaffected.
    """

    def __init__(self, name: str, recorder: TraceRecorder):
        super().__init__(name)
        self.recorder = recorder

    def write(self, values: Sequence[Any]) -> None:
        super().write(values)
        self.recorder.record(self.name, values)


@dataclass
class CommunicationStats:
    """Per-kind communication accounting used by the cost model."""

    intertask_reads: int = 0
    intertask_writes: int = 0
    intertask_items: int = 0
    intratask_reads: int = 0
    intratask_writes: int = 0
    intratask_items: int = 0
    environment_reads: int = 0
    environment_writes: int = 0
    environment_items: int = 0
    selects: int = 0

    def merge(self, other: "CommunicationStats") -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))


class PortBinding:
    """Maps the FlowC port names of one process to concrete endpoints.

    Each port is bound to one of: a :class:`ChannelBuffer` (with a role of
    ``reader`` or ``writer``), an :class:`EnvironmentSource`, or an
    :class:`EnvironmentSink`.  The binding also records communication
    statistics classified as inter-task, intra-task or environment traffic,
    which is what distinguishes the baseline implementation from the
    synthesized single task in the cost model.
    """

    def __init__(self, *, stats: Optional[CommunicationStats] = None):
        self.readers: Dict[str, ChannelBuffer] = {}
        self.writers: Dict[str, ChannelBuffer] = {}
        self.sources: Dict[str, EnvironmentSource] = {}
        self.sinks: Dict[str, EnvironmentSink] = {}
        self.intratask_ports: set[str] = set()
        self.stats = stats if stats is not None else CommunicationStats()

    # -- wiring -------------------------------------------------------------
    def bind_reader(self, port: str, channel: ChannelBuffer, *, intratask: bool = False) -> None:
        self.readers[port] = channel
        if intratask:
            self.intratask_ports.add(port)

    def bind_writer(self, port: str, channel: ChannelBuffer, *, intratask: bool = False) -> None:
        self.writers[port] = channel
        if intratask:
            self.intratask_ports.add(port)

    def bind_source(self, port: str, source: EnvironmentSource) -> None:
        self.sources[port] = source

    def bind_sink(self, port: str, sink: EnvironmentSink) -> None:
        self.sinks[port] = sink

    # -- the interpreter's port operations --------------------------------------
    def read(self, port: str, nitems: int) -> List[Any]:
        if port in self.sources:
            values = self.sources[port].read(nitems)
            self.stats.environment_reads += 1
            self.stats.environment_items += nitems
            return values
        if port in self.readers:
            values = self.readers[port].read(nitems)
            if port in self.intratask_ports:
                self.stats.intratask_reads += 1
                self.stats.intratask_items += nitems
            else:
                self.stats.intertask_reads += 1
                self.stats.intertask_items += nitems
            return values
        raise KeyError(f"port {port!r} is not bound for reading")

    def write(self, port: str, values: List[Any], nitems: int) -> None:
        if port in self.sinks:
            self.sinks[port].write(values)
            self.stats.environment_writes += 1
            self.stats.environment_items += nitems
            return
        if port in self.writers:
            self.writers[port].write(values)
            if port in self.intratask_ports:
                self.stats.intratask_writes += 1
                self.stats.intratask_items += nitems
            else:
                self.stats.intertask_writes += 1
                self.stats.intertask_items += nitems
            return
        raise KeyError(f"port {port!r} is not bound for writing")

    def available(self, port: str) -> int:
        if port in self.sources:
            return self.sources[port].available()
        if port in self.readers:
            return self.readers[port].occupancy
        return 0

    def select(self, entries: Sequence[Tuple[str, int]]) -> int:
        self.stats.selects += 1
        for index, (port, needed) in enumerate(entries):
            if port in self.sinks:
                return index
            if port in self.writers:
                space = self.writers[port].space()
                if space is None or space >= needed:
                    return index
                continue
            if self.available(port) >= needed:
                return index
        port, needed = entries[0]
        raise WouldBlock(port, needed, self.available(port))

    # -- readiness checks used by the simulators --------------------------------
    def can_read(self, port: str, nitems: int) -> bool:
        if port in self.sources:
            return self.sources[port].can_read(nitems)
        if port in self.readers:
            return self.readers[port].can_read(nitems)
        return False

    def can_write(self, port: str, nitems: int) -> bool:
        if port in self.sinks:
            return True
        if port in self.writers:
            return self.writers[port].can_write(nitems)
        return False
