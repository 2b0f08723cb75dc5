"""Structural fingerprints of Petri nets.

A fingerprint is a stable hash over the *value* of a net -- names, arcs,
weights, initial tokens, source kinds, sink flags, guards, bounds -- and
deliberately excludes the derived caches (`PetriNet._indexed`, adjacency)
and the opaque code annotations carried by transitions.  It covers
everything the scheduling search reads, so two nets built independently but
with identical structure produce identical fingerprints and identical
searches.  That is what keys the scheduling daemon's record cache
(:class:`repro.cache.ScheduleWarmStartCache`) and its single-flight map
across net *objects*: a request carries a freshly built net, and the
per-snapshot ``IndexedNet.analysis_cache`` dies with it.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Iterable, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.petrinet.net import PetriNet


def _hash_items(items: Iterable[Tuple]) -> str:
    digest = hashlib.sha256()
    for item in items:
        digest.update(repr(item).encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def structural_fingerprint(net: "PetriNet") -> str:
    """Hash of everything the scheduling search reads from a net."""
    items: list = []
    for name in sorted(net.places):
        place = net.places[name]
        items.append(
            (
                "p",
                name,
                net.initial_tokens.get(name, 0),
                place.bound,
                place.is_port,
                place.channel,
                place.process,
            )
        )
    for name in sorted(net.transitions):
        transition = net.transitions[name]
        items.append(
            (
                "t",
                name,
                tuple(sorted(net.pre[name].items())),
                tuple(sorted(net.post[name].items())),
                transition.source_kind.value,
                transition.is_sink,
                transition.guard,
                transition.select_priority,
                transition.process,
            )
        )
    return _hash_items(items)
