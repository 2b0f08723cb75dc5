"""Regression tests for the concurrency and durability fixes.

Three latent bugs surfaced by putting the scheduler behind a multi-threaded
daemon, each pinned here:

* ``BoundedLRU`` used an unlocked ``OrderedDict``: concurrent ``get``/``put``
  corrupted recency order and could double-fire ``on_evict`` (double-closing
  the owned resource).
* ``JsonDirStore._write`` renamed without fsync: ``os.replace`` could publish
  a name whose data never hit the disk, and the pid-only temp-file suffix
  collided between threads of one process.
* ``SqliteStore`` shared one connection across threads, interleaving
  statement/commit pairs into torn transactions.

The hammers use more threads than cores on purpose -- preemption anywhere
inside a critical section is what exposed the races.
"""

from __future__ import annotations

import os
import threading
from collections import Counter

import pytest

from repro.apps import paper_nets
from repro.cache.stores import JsonDirStore, SqliteStore, decode_wire
from repro.scheduling.ep import SearchCounters
from repro.scheduling.serialize import schedule_fingerprint
from repro.scheduling.warmstart import (
    LIVE_SEARCH_COUNTERS,
    ScheduleWarmStartCache,
    record_live_search,
)
from repro.util import BoundedLRU


def _run_threads(worker, count: int):
    """Start ``count`` threads on ``worker(index)``; re-raise any failure."""
    failures = []

    def body(index):
        try:
            worker(index)
        except BaseException as error:  # noqa: BLE001 - surfaced below
            failures.append(error)

    threads = [threading.Thread(target=body, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]


# ---------------------------------------------------------------------------
# BoundedLRU
# ---------------------------------------------------------------------------


class _Resource:
    """A value that notices being released more (or less) than once."""

    def __init__(self):
        self.releases = 0


def test_lru_on_evict_fires_once_per_displaced_value():
    released = []
    lru: BoundedLRU = BoundedLRU(2, on_evict=lambda k, v: released.append(k))
    lru.put("a", 1)
    lru.put("b", 2)
    lru.put("a", 10)  # overwrite: old value displaced
    lru.put("c", 3)  # capacity: "b" displaced ("a" is fresher)
    assert released == ["a", "b"]
    assert lru.get("a") == 10 and lru.get("c") == 3 and "b" not in lru
    lru.discard("c")  # dropped on request
    lru.discard("b")  # absent: nothing to release
    assert released == ["a", "b", "c"] and "c" not in lru
    lru.clear()
    assert released == ["a", "b", "c", "a"]
    assert len(lru) == 0


def test_lru_hammer_releases_each_value_exactly_once():
    """8 threads × 400 puts against a capacity-8 LRU: no lost or double evict."""
    lock = threading.Lock()
    created = []

    def on_evict(key, value):
        value.releases += 1

    lru: BoundedLRU = BoundedLRU(8, on_evict=on_evict)

    def worker(index):
        for i in range(400):
            value = _Resource()
            with lock:
                created.append(value)
            lru.put((index, i % 16), value)
            lru.get((index, (i + 7) % 16))
            len(lru)
            list(lru)

    _run_threads(worker, 8)
    lru.clear()
    # every value ever created was released exactly once -- by displacement,
    # overwrite, or the final clear
    counts = Counter(value.releases for value in created)
    assert counts == {1: len(created)}, counts


def test_lru_hammer_shared_keys_keeps_store_consistent():
    """Threads fighting over the same keys never corrupt the recency dict."""
    lru: BoundedLRU = BoundedLRU(4)

    def worker(index):
        for i in range(600):
            key = i % 6
            lru.put(key, (index, i))
            got = lru.get(key)
            assert got is None or isinstance(got, tuple)

    _run_threads(worker, 8)
    assert len(lru) <= 4
    for key in lru:
        assert lru.get(key) is not None


def test_lru_rejects_non_positive_capacity():
    with pytest.raises(ValueError):
        BoundedLRU(0)


# ---------------------------------------------------------------------------
# ScheduleWarmStartCache under threads
# ---------------------------------------------------------------------------


def test_warmstart_cache_hammer_single_fingerprint():
    """Many threads, one logical net: everyone gets the same schedule.

    Each thread carries its *own* net object (the documented contract --
    ``PetriNet`` lazy caches are per-object), sharing only the warm-start
    cache.  The L1 lock keeps the stats and the LRU coherent.
    """
    cache = ScheduleWarmStartCache(capacity=16, store=False)
    reference = cache.find_schedule(
        paper_nets.figure_5(), "a", raise_on_failure=True
    )
    expected = schedule_fingerprint(reference.schedule)
    fingerprints = []
    lock = threading.Lock()

    def worker(index):
        net = paper_nets.figure_5()
        for _ in range(25):
            result = cache.find_schedule(net, "a", raise_on_failure=True)
            with lock:
                fingerprints.append(schedule_fingerprint(result.schedule))

    _run_threads(worker, 8)
    assert set(fingerprints) == {expected}
    stats = cache.stats.as_dict()
    # one live search (the reference); everything after replays from L1
    assert stats["misses"] == 1
    assert stats["hits"] == 8 * 25


def test_record_live_search_merge_is_atomic():
    before = LIVE_SEARCH_COUNTERS.nodes_expanded

    def worker(index):
        for _ in range(500):
            record_live_search(SearchCounters(nodes_expanded=1))

    _run_threads(worker, 8)
    assert LIVE_SEARCH_COUNTERS.nodes_expanded - before == 8 * 500


# ---------------------------------------------------------------------------
# SqliteStore: connection per thread
# ---------------------------------------------------------------------------


def test_sqlite_store_connection_per_thread(tmp_path):
    store = SqliteStore(tmp_path)
    connections = {}
    lock = threading.Lock()

    def worker(index):
        conn = store._connection()
        with lock:
            connections[index] = id(conn)
        assert store._connection() is conn  # stable within the thread

    _run_threads(worker, 4)
    store.close()
    assert len(set(connections.values())) == 4


def test_sqlite_store_hammer_two_threads_zero_errors(tmp_path):
    """The ISSUE's scenario: one process, threads sharing one store."""
    store = SqliteStore(tmp_path)

    def worker(index):
        for i in range(120):
            key = f"k{index}-{i % 10}"
            store.put("schedule", key, {"thread": index, "i": i})
            got = store.get("schedule", key)
            # a concurrent overwrite may interleave, but whatever is read
            # back must be a pristine payload, never a torn one
            assert got is None or got["thread"] == index
            if i % 17 == 0:
                store.delete("schedule", key)

    _run_threads(worker, 4)
    assert store.stats.errors == 0
    assert store.quarantined_count() == 0
    # survivors are readable and intact
    for entry in store.entries():
        assert store.get(entry.kind, entry.key) is not None
    store.close()


def test_sqlite_store_close_degrades_to_miss(tmp_path):
    store = SqliteStore(tmp_path)
    store.put("schedule", "k", {"v": 1})
    store.close()
    # the no-public-method-raises contract survives closing
    assert store.get("schedule", "k") is None
    store.put("schedule", "k2", {"v": 2})
    assert store.stats.errors >= 2


def test_sqlite_store_reopens_after_corrupt_rotation(tmp_path):
    (tmp_path / SqliteStore.FILENAME).write_text("this is not a database")
    store = SqliteStore(tmp_path)
    store.put("schedule", "k", {"v": 1})
    assert store.get("schedule", "k") == {"v": 1}
    assert (tmp_path / f"{SqliteStore.FILENAME}.corrupt-0").exists()
    store.close()


# ---------------------------------------------------------------------------
# JsonDirStore: durable atomic writes
# ---------------------------------------------------------------------------


def test_jsondir_write_fsyncs_file_before_replace_and_directory_after(
    tmp_path, monkeypatch
):
    store = JsonDirStore(tmp_path)
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def spy_fsync(fd):
        events.append(("fsync", os.fstat(fd).st_mode & 0o170000 == 0o040000))
        real_fsync(fd)

    def spy_replace(src, dst):
        events.append(("replace", None))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", spy_fsync)
    monkeypatch.setattr(os, "replace", spy_replace)
    store.put("schedule", "k", {"v": 1})
    kinds = [kind for kind, _ in events]
    assert kinds == ["fsync", "replace", "fsync"]
    # first fsync targets the temp *file*, the last one the *directory*
    assert events[0][1] is False
    assert events[2][1] is True
    assert store.get("schedule", "k") == {"v": 1}


def test_jsondir_write_failure_leaves_no_temp_file(tmp_path, monkeypatch):
    store = JsonDirStore(tmp_path)

    def boom(src, dst):
        raise OSError("disk on fire")

    monkeypatch.setattr(os, "replace", boom)
    store.put("schedule", "k", {"v": 1})  # swallowed, counted
    assert store.stats.errors == 1
    leftovers = [p for p in tmp_path.rglob("*") if ".tmp-" in p.name]
    assert leftovers == []
    assert store.get("schedule", "k") is None


def test_jsondir_concurrent_same_key_writes_never_collide(tmp_path):
    """Thread-id temp suffix: same-key writers never share a temp file."""
    store = JsonDirStore(tmp_path)

    def worker(index):
        for i in range(60):
            store.put("schedule", "contested", {"thread": index, "i": i})

    _run_threads(worker, 8)
    assert store.stats.errors == 0
    # the surviving entry is one writer's intact payload
    payload = store.get("schedule", "contested")
    assert payload is not None and set(payload) == {"thread", "i"}
    leftovers = [p for p in tmp_path.rglob("*") if ".tmp-" in p.name]
    assert leftovers == []


def test_jsondir_blob_on_disk_is_checksummed(tmp_path):
    store = JsonDirStore(tmp_path)
    store.put("schedule", "k", {"v": 1})
    (path,) = (tmp_path / "json" / "schedule").glob("*.json")
    assert decode_wire(path.read_text()) == {"v": 1}
