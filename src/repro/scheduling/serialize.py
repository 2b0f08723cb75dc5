"""Canonical serialization of schedules.

One schedule has exactly one canonical dictionary form: nodes in index
order, markings as sorted ``[place, count]`` pairs, edges sorted by
transition name.  Byte-for-byte equality of :func:`schedule_to_json` (and
therefore of :func:`schedule_fingerprint`) is the equality notion used by

* the golden-schedule regression fixtures under ``tests/golden/``,
* the folded-vs-fallback equivalence tests of the EP search,
* the scheduling daemon's record cache (:mod:`repro.cache`), which replays
  a schedule for a structurally identical net from its serialized form.

Deserialization rebinds the schedule to a caller-supplied net, so a
schedule computed against one net object (or loaded from disk) comes back
referencing the caller's.
"""

from __future__ import annotations

import hashlib
import json
from itertools import compress
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional

from repro.petrinet.indexed import IndexedNet
from repro.petrinet.marking import Marking
from repro.petrinet.net import PetriNet
from repro.scheduling.schedule import Schedule, ScheduleNode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (ep imports nothing here)
    from repro.scheduling.ep import SchedulerResult


def marking_to_items(marking: Mapping[str, int]) -> List[List[object]]:
    """Sorted ``[place, count]`` pairs of the non-zero entries."""
    return [[place, int(count)] for place, count in sorted(marking.items()) if count]


def _node_marking_items(node: ScheduleNode, inet: IndexedNet) -> List[List[object]]:
    """A node's :func:`marking_to_items`, read off its vector: place IDs follow
    sorted-name order, so the non-zero columns come out sorted."""
    vec = node.vec_in(inet)
    if node.foreign:
        return marking_to_items(node.marking)
    names = inet.place_names
    return [[names[pid], int(vec[pid])] for pid in compress(range(len(vec)), vec)]


def schedule_to_dict(schedule: Schedule) -> Dict[str, object]:
    """The canonical dictionary form of a schedule."""
    inet = schedule.net.indexed()
    return {
        "source_transition": schedule.source_transition,
        "root": schedule.root,
        "nodes": [
            {
                "marking": _node_marking_items(node, inet),
                "edges": {
                    transition: target
                    for transition, target in sorted(node.edges.items())
                },
            }
            for node in schedule.nodes
        ],
    }


def schedule_from_dict(net: PetriNet, data: Mapping[str, object]) -> Schedule:
    """Rebuild a schedule from its canonical form, bound to ``net``."""
    schedule = Schedule(net=net, source_transition=str(data["source_transition"]))
    nodes = data["nodes"]
    assert isinstance(nodes, list)
    for entry in nodes:
        schedule.add_node(Marking({place: count for place, count in entry["marking"]}))
    for index, entry in enumerate(nodes):
        for transition, target in entry["edges"].items():
            schedule.add_edge(index, transition, int(target))
    schedule.root = int(data["root"])
    return schedule


def schedule_to_json(schedule: Schedule) -> str:
    """Canonical JSON: sorted keys, no whitespace -- byte-stable."""
    return json.dumps(schedule_to_dict(schedule), sort_keys=True, separators=(",", ":"))


def schedule_dict_fingerprint(data: Mapping[str, object]) -> str:
    """SHA-256 of a schedule already in canonical dictionary form.

    Byte-identical to :func:`schedule_fingerprint` of the schedule the dict
    was derived from; used by consumers that hold the serialized record but
    no live :class:`Schedule` (cache replays, the serving daemon's wire
    responses).
    """
    body = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def schedule_fingerprint(schedule: Schedule) -> str:
    """SHA-256 of the canonical JSON form."""
    return schedule_dict_fingerprint(schedule_to_dict(schedule))


def verify_roundtrip(schedule: Schedule) -> str:
    """Assert serialize -> deserialize -> serialize is byte-stable.

    Returns the fingerprint on success and raises :class:`ValueError` when
    the round-tripped schedule diverges -- i.e. when the canonical form has
    stopped being canonical.  The corpus differential harness runs this on
    every schedule it synthesizes tasks from, so any drift between the
    serializer and the :class:`Schedule` structure is caught by the corpus
    before it can poison the cache or the serving daemon.
    """
    original = schedule_to_json(schedule)
    rebuilt = schedule_from_dict(schedule.net, json.loads(original))
    replayed = schedule_to_json(rebuilt)
    if replayed != original:
        raise ValueError(
            "schedule serialization is not round-trip stable for source "
            f"{schedule.source_transition!r}"
        )
    return schedule_fingerprint(schedule)


def result_to_record(result: "SchedulerResult") -> Dict[str, object]:
    """Net-free record of a scheduling outcome.

    The single encoder shared by the serve daemon's wire responses and its
    record cache, which replays records as they are.  Adding a field to
    :class:`SchedulerResult` that must survive a cache replay or the wire
    means extending exactly this function and the record check of
    :mod:`repro.cache`.
    """
    return {
        "schedule": schedule_to_dict(result.schedule) if result.schedule else None,
        "tree_nodes": result.tree_nodes,
        "elapsed_seconds": result.elapsed_seconds,
        "failure_reason": result.failure_reason,
        "counters": result.counters.as_dict(),
    }


def schedule_summary(schedule: Optional[Schedule]) -> Dict[str, object]:
    """The shape facts the golden regression fixtures diff.

    Kept deliberately small and human-readable: node / edge / await counts
    plus the channel bounds the schedule implies (the quantities Section 8
    of the paper reports).
    """
    if schedule is None:
        return {"nodes": 0, "edges": 0, "await_nodes": 0, "channel_bounds": {}}
    return {
        "nodes": len(schedule),
        "edges": sum(node.out_degree for node in schedule.nodes),
        "await_nodes": len(schedule.await_nodes()),
        "channel_bounds": dict(sorted(schedule.channel_bounds().items())),
    }
