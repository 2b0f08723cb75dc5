"""Small shared utilities with no dependencies on the rest of the package."""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Generic, Iterator, List, Optional, Tuple, TypeVar

K = TypeVar("K")
V = TypeVar("V")


class BoundedLRU(Generic[K, V]):
    """A dictionary with least-recently-used eviction beyond ``capacity``.

    Backs the process-wide warm-start stores (materialised nets in the
    scheduling workers, T-invariant bases, serialized schedules): ``get``
    refreshes recency, ``put`` inserts and evicts the stalest entries.

    ``on_evict`` (optional) is called with ``(key, value)`` for every entry
    the store lets go of -- LRU displacement, overwrite of an existing key,
    :meth:`discard` and :meth:`clear` -- so values owning external
    resources (e.g. attached shared-memory views in a scheduling worker)
    can release them deterministically instead of waiting for garbage
    collection.  Exceptions raised by the callback propagate to the
    mutating call.

    All operations are thread-safe: the scheduling-as-a-service executor
    runs ``lookup``/``store`` from many threads against one shared L1, and
    an unlocked ``OrderedDict`` corrupts its recency order (or double-fires
    ``on_evict``, double-closing the owned resource) under that load.  A
    re-entrant lock serializes every mutation *including* the ``on_evict``
    callbacks, so each displaced value is released exactly once.
    """

    __slots__ = ("capacity", "_store", "on_evict", "_lock")

    def __init__(
        self,
        capacity: int,
        on_evict: Optional[Callable[[K, V], None]] = None,
    ):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.on_evict = on_evict
        self._store: "OrderedDict[K, V]" = OrderedDict()
        # re-entrant: an on_evict callback may legitimately touch the LRU
        # (e.g. to log its size) without deadlocking the mutating thread
        self._lock = threading.RLock()

    def get(self, key: K, default: Optional[V] = None) -> Optional[V]:
        with self._lock:
            if key in self._store:
                self._store.move_to_end(key)
                return self._store[key]
            return default

    def put(self, key: K, value: V) -> None:
        displaced: List[Tuple[K, V]] = []
        with self._lock:
            previous = self._store.get(key)
            self._store[key] = value
            self._store.move_to_end(key)
            if previous is not None and previous is not value:
                displaced.append((key, previous))
            while len(self._store) > self.capacity:
                displaced.append(self._store.popitem(last=False))
            if self.on_evict:
                # fire inside the lock: a concurrent put must not observe
                # (and re-evict) a value whose callback has not finished
                for evicted_key, evicted_value in displaced:
                    self.on_evict(evicted_key, evicted_value)

    def discard(self, key: K) -> None:
        """Drop ``key`` if present (``on_evict`` fires for its value)."""
        with self._lock:
            if key in self._store:
                value = self._store.pop(key)
                if self.on_evict:
                    self.on_evict(key, value)

    def clear(self) -> None:
        with self._lock:
            if self.on_evict:
                while self._store:
                    key, value = self._store.popitem(last=False)
                    self.on_evict(key, value)
            self._store.clear()

    def __contains__(self, key: K) -> bool:
        with self._lock:
            return key in self._store

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def __iter__(self) -> Iterator[K]:
        with self._lock:
            return iter(list(self._store))
