"""Regression tests for the concurrency and durability fixes.

Two latent bugs surfaced by putting the scheduler behind a multi-threaded
daemon, each pinned here:

* ``BoundedLRU`` used an unlocked ``OrderedDict``: concurrent ``get``/``put``
  corrupted recency order.
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

import pytest

from repro.apps import paper_nets
from repro.apps.video import VideoAppConfig, build_video_system
from repro.cache import SqliteStore, options_cache_key
from repro.scheduling.ep import SchedulerOptions, _EPSearch
from repro.scheduling.serialize import schedule_dict_fingerprint
from repro.serve import SchedulingService
from repro.util import BoundedLRU, raised_recursion_limit
from service_path import schedule_through


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
# the record cache under threads
# ---------------------------------------------------------------------------


def test_warmstart_cache_hammer_single_fingerprint():
    """Many threads, one logical net: everyone gets the same schedule.

    Each thread carries its *own* net object (the documented contract --
    ``PetriNet`` lazy caches are per-object), sharing only the service's
    record cache, driven as its executor threads drive it.  The locks keep
    the stats and the LRU coherent.
    """
    service = SchedulingService(l1_capacity=16)
    reference, _origin = schedule_through(service, paper_nets.figure_5(), "a")
    expected = schedule_dict_fingerprint(reference["schedule"])
    fingerprints = []
    lock = threading.Lock()

    def worker(index):
        net = paper_nets.figure_5()
        for _ in range(25):
            record, _origin = schedule_through(service, net, "a")
            with lock:
                fingerprints.append(schedule_dict_fingerprint(record["schedule"]))

    _run_threads(worker, 8)
    assert set(fingerprints) == {expected}
    stats = service.snapshot()
    # one live search (the reference); everything after replays from L1
    assert stats["live_searches"] == 1 and stats["l1_hits"] == 8 * 25


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


def _failure_record(reason: str):
    """A failure outcome's record: nothing to replay, so any net reads it."""
    return {"schedule": None, "tree_nodes": 0, "elapsed_seconds": 0.0,
            "failure_reason": reason, "counters": {}}


OPTS = options_cache_key(SchedulerOptions())


def test_sqlite_store_hammer_two_threads_zero_errors(tmp_path):
    """One process, threads sharing one store: no save is dropped and no
    read is torn."""
    store = SqliteStore(tmp_path)

    def worker(index):
        net = paper_nets.figure_5()
        for i in range(120):
            fingerprint = f"k{index}-{i % 10}"
            record = _failure_record(f"{index}-{i}")
            store.save(fingerprint, "a", OPTS, record)
            # every key belongs to one thread: what it reads back is what it
            # just wrote, pristine, never a miss or a torn record
            assert store.load(net, fingerprint, "a", OPTS) == (record, False)

    _run_threads(worker, 4)
    assert store.quarantined_count() == 0
    # survivors are readable and intact
    assert store.verify() == (40, [])
    store.close()


def test_sqlite_store_close_degrades_to_miss(tmp_path):
    net = paper_nets.figure_5()
    store = SqliteStore(tmp_path)
    store.save("fp", "a", OPTS, _failure_record("kept"))
    store.close()
    # the no-public-method-raises contract survives closing
    assert store.load(net, "fp", "a", OPTS) == (None, False)
    store.save("fp2", "a", OPTS, _failure_record("dropped"))
    assert store.entries() == [] and store.verify() == (0, [])
    assert store.quarantined_count() == 0
    store.clear()
    # the entry saved before closing is still on disk; the later save was dropped
    reopened = SqliteStore(tmp_path)
    assert reopened.load(net, "fp", "a", OPTS) == (_failure_record("kept"), False)
    assert reopened.load(net, "fp2", "a", OPTS) == (None, False)
    reopened.close()


def test_sqlite_store_reopens_after_corrupt_rotation(tmp_path):
    (tmp_path / SqliteStore.FILENAME).write_text("this is not a database")
    store = SqliteStore(tmp_path)
    store.save("fp", "a", OPTS, _failure_record("v"))
    assert store.load(paper_nets.figure_5(), "fp", "a", OPTS) == (_failure_record("v"), False)
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


class _GateAtDepth(_EPSearch):
    """The default search, blocking once at the first node of ``depth`` it
    ranks candidates for."""

    def __init__(self, net, source, depth: int):
        super().__init__(net, source, SchedulerOptions())
        self.depth = depth
        self.reached = threading.Event()
        self.release = threading.Event()

    def _candidate_ecss(self, v):
        if self.tree.nodes[v].depth >= self.depth and not self.reached.is_set():
            self.reached.set()
            assert self.release.wait(10)
        return super()._candidate_ecss(v)


def test_deep_search_survives_a_shorter_search_finishing_first():
    """PFC 10x10 recurses past the default limit of 1000 frames.

    A ``figure_5`` search enters first and finishes while the PFC search
    waits at depth 200; the PFC search must still complete.
    """
    deep_net = build_video_system(VideoAppConfig(10, 10)).net
    deep_source = "src.controller.init"
    short_net = paper_nets.figure_5()
    deep_gate = _GateAtDepth(deep_net, deep_source, 200)
    short_gate = _GateAtDepth(short_net, "a", 0)
    results = {}

    def search(name, gate):
        try:
            results[name] = gate.run()
        except BaseException as exc:  # a RecursionError must fail the test
            results[name] = exc

    original = sys.getrecursionlimit()
    short = threading.Thread(target=search, args=("short", short_gate))
    deep = threading.Thread(target=search, args=("deep", deep_gate))
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
