"""Small shared utilities with no dependencies on the rest of the package."""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Generic, Iterator, Optional, TypeVar

K = TypeVar("K")
V = TypeVar("V")

_recursion_lock = threading.Lock()
_recursion_holders = 0
_recursion_saved = 0


@contextmanager
def raised_recursion_limit(limit: int = 100_000) -> Iterator[None]:
    """Hold the interpreter's recursion limit at ``limit`` or above.

    EP recurses once per tree level, so a deep schedule needs far more than
    the default 1000 frames (pure-Python recursion is heap-allocated on
    CPython >= 3.11, so only the limit has to move).  The limit is
    process-wide and searches run concurrently on the daemon's executor
    threads, so holders are counted under a lock: the first one raises the
    limit and the last one to leave restores the value the first one saw.
    A holder that leaves early never drops the limit under another's
    recursion.

    Example::

        >>> import sys
        >>> before = sys.getrecursionlimit()
        >>> with raised_recursion_limit(5000):
        ...     sys.getrecursionlimit() >= 5000
        True
        >>> sys.getrecursionlimit() == before
        True
    """
    global _recursion_holders, _recursion_saved
    with _recursion_lock:
        current = sys.getrecursionlimit()
        if _recursion_holders == 0:
            _recursion_saved = current
        if current < limit:
            sys.setrecursionlimit(limit)
        _recursion_holders += 1
    try:
        yield
    finally:
        with _recursion_lock:
            _recursion_holders -= 1
            if _recursion_holders == 0:
                sys.setrecursionlimit(_recursion_saved)


class BoundedLRU(Generic[K, V]):
    """A dictionary with least-recently-used eviction beyond ``capacity``.

    Backs the scheduling daemon's in-memory record cache (the L1 of
    :class:`repro.serve.SchedulingService`) and its request memo: ``get``
    refreshes recency, ``put`` inserts and evicts the stalest entries.

    All operations are thread-safe: the service's executor threads read and
    write one shared L1 while the event loop reads it for memo hits, and an
    unlocked ``OrderedDict`` corrupts its recency order under that load.
    """

    __slots__ = ("capacity", "_store", "_lock")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._store: "OrderedDict[K, V]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: K, default: Optional[V] = None) -> Optional[V]:
        with self._lock:
            if key in self._store:
                self._store.move_to_end(key)
                return self._store[key]
            return default

    def put(self, key: K, value: V) -> None:
        with self._lock:
            self._store[key] = value
            self._store.move_to_end(key)
            while len(self._store) > self.capacity:
                self._store.popitem(last=False)

    def discard(self, key: K) -> None:
        """Drop ``key`` if present."""
        with self._lock:
            self._store.pop(key, None)

    def clear(self) -> None:
        with self._lock:
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
