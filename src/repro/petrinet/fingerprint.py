"""Structural fingerprints of Petri nets.

A fingerprint is a stable hash over the *value* of a net -- names, arcs,
weights, initial tokens, source kinds, bounds -- and deliberately excludes
the derived caches (`PetriNet._indexed`, adjacency) and the opaque code
annotations carried by transitions.  Two nets built independently but with
identical structure produce identical fingerprints, which is what lets the
warm-start caches (:mod:`repro.scheduling.warmstart`, the T-invariant basis
store in :mod:`repro.petrinet.invariants`) survive across net *objects*:
the per-snapshot ``IndexedNet.analysis_cache`` dies whenever a config sweep
rebuilds the same system, a fingerprint-keyed store does not.

Two granularities are provided:

* :func:`incidence_fingerprint` covers exactly what the incidence matrix
  sees (transitions, places, arc weights).  T-invariants depend on nothing
  else, so this is the key for basis reuse.
* :func:`structural_fingerprint` additionally covers the initial marking,
  source kinds, sink flags, guards and user channel bounds -- everything
  the scheduling search reads.  Identical fingerprints imply the EP search
  is deterministic-identical, so schedules can be replayed from a cache.
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


def incidence_fingerprint(net: "PetriNet") -> str:
    """Hash of the weighted flow relation (what ``C x = 0`` depends on)."""
    items: list = [("places", tuple(sorted(net.places)))]
    for transition in sorted(net.transitions):
        items.append(
            (
                "t",
                transition,
                tuple(sorted(net.pre[transition].items())),
                tuple(sorted(net.post[transition].items())),
            )
        )
    return _hash_items(items)


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
