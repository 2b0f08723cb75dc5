"""Regression tests for the concurrency and durability fixes.

Two latent bugs surfaced by putting the scheduler behind a multi-threaded
daemon, each pinned here:

* ``BoundedLRU`` used an unlocked ``OrderedDict``: concurrent ``get``/``put``
  corrupted recency order and could double-fire ``on_evict`` (double-closing
  the owned resource).
* ``SqliteStore`` shared one connection across threads, interleaving
  statement/commit pairs into torn transactions.

A fourth lives in the search itself: every EP search raised the
process-wide recursion limit and restored the value it saw, so the first of
two concurrent searches to finish dropped the limit under the other's
recursion.  ``raised_recursion_limit`` now counts its holders.

The hammers use more threads than cores on purpose -- preemption anywhere
inside a critical section is what exposed the races.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter

import pytest

from repro.apps import paper_nets
from repro.apps.video import VideoAppConfig, build_video_system
from repro.cache.stores import SqliteStore
from repro.petrinet.analysis import StructuralAnalysis
from repro.scheduling.ep import SearchCounters, find_schedule
from repro.scheduling.heuristics import ECSOrderingHeuristic, make_heuristic
from repro.scheduling.serialize import schedule_fingerprint
from repro.scheduling.warmstart import (
    LIVE_SEARCH_COUNTERS,
    ScheduleWarmStartCache,
    record_live_search,
)
from repro.util import BoundedLRU, raised_recursion_limit


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
# the recursion limit is shared by concurrent searches
# ---------------------------------------------------------------------------


def test_recursion_limit_stays_raised_until_the_last_holder_exits():
    original = sys.getrecursionlimit()
    first_in, second_in, first_out = (threading.Event() for _ in range(3))
    seen = {}

    def first():
        with raised_recursion_limit(50_000):
            first_in.set()
            assert second_in.wait(5)
        first_out.set()

    def second():
        assert first_in.wait(5)
        with raised_recursion_limit(50_000):
            second_in.set()
            assert first_out.wait(5)
            # the first holder left: the limit must not drop under us
            seen["after_first_exit"] = sys.getrecursionlimit()

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10)
    assert seen["after_first_exit"] >= 50_000
    assert sys.getrecursionlimit() == original


def test_recursion_limit_holder_hammer_never_drops_a_live_holder():
    original = sys.getrecursionlimit()
    dropped = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:

        def worker(_index):
            for _ in range(300):
                with raised_recursion_limit(40_000):
                    time.sleep(0)  # let the other holders come and go
                    if sys.getrecursionlimit() < 40_000:
                        dropped.append(sys.getrecursionlimit())

        _run_threads(worker, 8)
    finally:
        sys.setswitchinterval(interval)
    assert not dropped
    assert sys.getrecursionlimit() == original


class _GateAtDepth(ECSOrderingHeuristic):
    """The default ordering, blocking once at the first node of ``depth``."""

    def __init__(self, inner, depth: int):
        self.inner = inner
        self.depth = depth
        self.reached = threading.Event()
        self.release = threading.Event()

    def order(self, ecss, context):
        if context.depth >= self.depth and not self.reached.is_set():
            self.reached.set()
            assert self.release.wait(10)
        return self.inner.order(ecss, context)


def test_deep_search_survives_a_shorter_search_finishing_first():
    """PFC 10x10 recurses past the default limit of 1000 frames.

    A ``figure_5`` search enters first and finishes while the PFC search
    waits at depth 200; the PFC search must still complete.
    """
    deep_net = build_video_system(VideoAppConfig(10, 10)).net
    deep_source = "src.controller.init"
    short_net = paper_nets.figure_5()
    deep_gate = _GateAtDepth(
        make_heuristic(deep_net, StructuralAnalysis.of(deep_net), deep_source), 200
    )
    short_gate = _GateAtDepth(
        make_heuristic(short_net, StructuralAnalysis.of(short_net), "a"), 0
    )
    results = {}

    def search(name, net, source, gate):
        try:
            results[name] = find_schedule(net, source, heuristic=gate)
        except BaseException as exc:  # a RecursionError must fail the test
            results[name] = exc

    original = sys.getrecursionlimit()
    short = threading.Thread(target=search, args=("short", short_net, "a", short_gate))
    deep = threading.Thread(
        target=search, args=("deep", deep_net, deep_source, deep_gate)
    )
    short.start()
    assert short_gate.reached.wait(5)
    deep.start()
    assert deep_gate.reached.wait(5)
    short_gate.release.set()
    short.join(10)
    deep_gate.release.set()
    deep.join(10)
    assert results["short"].success
    assert not isinstance(results["deep"], BaseException), results["deep"]
    assert results["deep"].success
    assert sys.getrecursionlimit() == original
