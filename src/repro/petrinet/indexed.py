"""Indexed Petri-net core: the integer-dense substrate of the hot paths.

The public boundary of the package is the name-based facade
(:class:`~repro.petrinet.net.PetriNet` plus the immutable
:class:`~repro.petrinet.marking.Marking` mapping).  That representation is
convenient for construction, linking and reporting, but it makes the
compile-time scheduling search pay a dictionary copy and a sorted-tuple hash
per fired transition and a full transition scan per enabled-set query.

This module provides the dense view every marking-walking layer runs on:

* places and transitions get dense integer IDs (sorted-name order, so IDs are
  reproducible and ID order equals name order);
* a marking is a plain tuple of token counts indexed by place ID -- natively
  hashable with no sorting and cheap to compare;
* each transition carries precomputed ``consume`` / ``delta`` sparse
  vectors, so firing is a handful of integer adds on a list copy;
* per-place consumer adjacency supports *incremental* enabled-set maintenance:
  after firing ``t`` only the transitions consuming from a place whose count
  actually changed are re-checked, instead of rescanning the whole net;
* :class:`MarkingStore` hash-conses marking tuples so equal markings share one
  object (identity fast-paths and deduplicated memory in large search trees).

An :class:`IndexedNet` is built once per structural version of a
:class:`PetriNet` and cached on it (see :meth:`PetriNet.indexed`); any
structural mutation invalidates the cache.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Tuple

from repro.petrinet.marking import Marking

# A marking in dense form: token count per place ID.
MarkingVec = Tuple[int, ...]
# A sparse per-transition vector: ((place_id, amount), ...).
SparseVec = Tuple[Tuple[int, int], ...]


class MarkingStore:
    """Hash-consing store for marking vectors.

    ``intern`` returns a canonical tuple object for each distinct marking, so
    equal markings compare with a pointer check first and the search tree does
    not hold thousands of duplicate tuples.  ``len`` reports the number of
    distinct markings seen -- the ``interned_markings`` search counter.
    """

    __slots__ = ("_store",)

    def __init__(self) -> None:
        self._store: Dict[MarkingVec, MarkingVec] = {}

    def intern(self, vec: MarkingVec) -> MarkingVec:
        """Return the canonical instance of ``vec``, admitting it if new.

        Two structurally equal markings interned through the same store come
        back as the *same* tuple object, so the schedulers can compare path
        ancestors by identity instead of element-wise equality.
        """
        canonical = self._store.get(vec)
        if canonical is None:
            self._store[vec] = vec
            return vec
        return canonical

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, vec: MarkingVec) -> bool:
        return vec in self._store


class IndexedNet:
    """Dense integer view of a :class:`PetriNet` (structurally immutable).

    The view is a snapshot: it must not be used across structural mutations of
    the underlying net (the :meth:`PetriNet.indexed` accessor enforces this by
    rebuilding on a version counter).
    """

    __slots__ = (
        "net",
        "place_names",
        "place_index",
        "transition_names",
        "transition_index",
        "consume",
        "delta",
        "token_delta",
        "deltas_by_name",
        "consumers_of_place",
        "initial_vec",
        "analysis_cache",
    )

    def __init__(self, net) -> None:
        # Dense ID assignment: sorted-name order for places and transitions.
        self.net = net
        self.place_names: Tuple[str, ...] = tuple(sorted(net.places))
        self.place_index: Dict[str, int] = {
            name: pid for pid, name in enumerate(self.place_names)
        }
        self.transition_names: Tuple[str, ...] = tuple(sorted(net.transitions))
        self.transition_index: Dict[str, int] = {
            name: tid for tid, name in enumerate(self.transition_names)
        }

        consume: List[SparseVec] = []
        delta: List[SparseVec] = []
        token_delta: List[int] = []
        deltas_by_name: List[Dict[str, int]] = []
        for name in self.transition_names:
            pre = net.pre[name]
            post = net.post[name]
            consume.append(
                tuple(sorted((self.place_index[p], w) for p, w in pre.items()))
            )
            by_pid: Dict[int, int] = {}
            for p, w in pre.items():
                pid = self.place_index[p]
                by_pid[pid] = by_pid.get(pid, 0) - w
            for p, w in post.items():
                pid = self.place_index[p]
                by_pid[pid] = by_pid.get(pid, 0) + w
            sparse = tuple(sorted((pid, d) for pid, d in by_pid.items() if d))
            delta.append(sparse)
            token_delta.append(sum(d for _pid, d in sparse))
            deltas_by_name.append(
                {self.place_names[pid]: d for pid, d in sparse}
            )
        self.consume: Tuple[SparseVec, ...] = tuple(consume)
        self.delta: Tuple[SparseVec, ...] = tuple(delta)
        self.token_delta: Tuple[int, ...] = tuple(token_delta)
        self.deltas_by_name: Tuple[Dict[str, int], ...] = tuple(deltas_by_name)

        self.initial_vec: MarkingVec = tuple(
            net.initial_tokens.get(name, 0) for name in self.place_names
        )

        # Consumer adjacency derived from the sparse form.
        consumers: List[List[Tuple[int, int]]] = [[] for _ in self.place_names]
        for tid, vec in enumerate(self.consume):
            for pid, w in vec:
                consumers[pid].append((tid, w))
        self.consumers_of_place: Tuple[Tuple[Tuple[int, int], ...], ...] = tuple(
            tuple(entries) for entries in consumers
        )

        # Scratch space for analyses keyed to this structural snapshot (e.g.
        # the T-invariant basis); dies with the snapshot on net mutation.
        self.analysis_cache: Dict[object, object] = {}

    # ------------------------------------------------------------------
    # facade conversions
    # ------------------------------------------------------------------
    def vec_of_marking(self, marking: Mapping[str, int]) -> MarkingVec:
        """Dense vector for a name-keyed marking (zero for unknown places)."""
        get = marking.get
        return tuple(get(name, 0) for name in self.place_names)

    def marking_of_vec(self, vec: MarkingVec) -> Marking:
        """Facade :class:`Marking` for a dense vector.

        Place IDs follow sorted-name order, so the non-zero items are already
        sorted and the Marking can be built without re-sorting.
        """
        names = self.place_names
        items = tuple(
            (names[pid], count) for pid, count in enumerate(vec) if count
        )
        return Marking._from_sorted_items(items)

    # ------------------------------------------------------------------
    # firing semantics
    # ------------------------------------------------------------------
    def is_enabled_vec(self, tid: int, vec: MarkingVec) -> bool:
        for pid, weight in self.consume[tid]:
            if vec[pid] < weight:
                return False
        return True

    def fire_vec(self, tid: int, vec: MarkingVec) -> MarkingVec:
        """Fire transition ``tid`` at ``vec`` and return the successor vector."""
        for pid, weight in self.consume[tid]:
            if vec[pid] < weight:
                from repro.petrinet.net import PetriNetError

                raise PetriNetError(
                    f"transition {self.transition_names[tid]!r} is not enabled "
                    f"(place {self.place_names[pid]!r} holds {vec[pid]} < {weight})"
                )
        counts = list(vec)
        for pid, d in self.delta[tid]:
            counts[pid] += d
        return tuple(counts)

    def enabled_vec(self, vec: MarkingVec) -> Tuple[int, ...]:
        """All enabled transition IDs (ascending ID == ascending name)."""
        result = []
        for tid, needs in enumerate(self.consume):
            for pid, weight in needs:
                if vec[pid] < weight:
                    break
            else:
                result.append(tid)
        return tuple(result)

    def enabled_after(
        self, prev_enabled: FrozenSet[int], tid: int, new_vec: MarkingVec
    ) -> FrozenSet[int]:
        """Enabled set after firing ``tid``, updated incrementally.

        ``prev_enabled`` must be the enabled set of the marking ``tid`` was
        fired at.  Only a consumer of a changed place whose arc weight the
        change crossed can change: a count falling below the weight disables
        it, a count rising to the weight re-checks its other input places.
        Source transitions (empty preset) consume nothing and stay enabled
        forever, which the update preserves.
        """
        updated = None
        for pid, d in self.delta[tid]:
            count = new_vec[pid]
            before = count - d
            for other, weight in self.consumers_of_place[pid]:
                if d < 0:
                    if count < weight <= before:
                        if updated is None:
                            updated = set(prev_enabled)
                        updated.discard(other)
                elif before < weight <= count and self.is_enabled_vec(other, new_vec):
                    if updated is None:
                        updated = set(prev_enabled)
                    updated.add(other)
        return prev_enabled if updated is None else frozenset(updated)

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def total_tokens(self, vec: MarkingVec) -> int:
        return sum(vec)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IndexedNet({self.net.name!r}, places={len(self.place_names)}, "
            f"transitions={len(self.transition_names)})"
        )
