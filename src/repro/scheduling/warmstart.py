"""Warm-start cache for schedules, keyed on structural fingerprints.

`VideoAppConfig` sweeps (table1 / table2 / figure20, the benchmarks, the
examples) repeatedly rebuild *new* net objects with identical structure;
every per-object cache (``IndexedNet.analysis_cache``, ``lru_cache`` over
configs) goes cold with them.  The EP search is deterministic, so for a
structurally identical net -- same places, arcs, weights, initial tokens,
source kinds, bounds, as captured by
:func:`repro.petrinet.fingerprint.structural_fingerprint` -- the resulting
schedule is identical too and can simply be replayed from its canonical
serialized form instead of re-searched.

Since the disk cache landed (:mod:`repro.cache`) the warm start is two
levels deep:

* **L1** -- the in-memory :class:`~repro.util.BoundedLRU` of this class:
  free to hit, dies with the process;
* **L2** -- the process-wide disk store (``.cache/repro/``), consulted on
  every L1 miss *when active* (:func:`repro.cache.active_store`); entries
  loaded from disk are replay-validated against the live net before being
  trusted, then promoted into L1.  Searches executed on a full miss write
  through to both levels, which is what lets a *second process* running the
  same workload skip the EP search entirely.

The cache stores successful *and* failed outcomes (a net that is not
single-source schedulable stays that way), remembers the original search
statistics (tree nodes, counters) and marks replayed results with
``SchedulerResult.from_cache``.  Only searches under a default termination
condition are cached: a caller-supplied :class:`TerminationCondition` is an
arbitrary object we cannot fingerprint, so those calls pass straight
through.

The companion warm start for the T-invariant basis lives in
:mod:`repro.petrinet.invariants` (keyed on the incidence fingerprint, which
is all a basis depends on); it layers over the same disk store.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

import repro.cache as artifact_cache
from repro.petrinet.fingerprint import structural_fingerprint
from repro.util import BoundedLRU
from repro.petrinet.net import PetriNet
from repro.scheduling.ep import (
    SchedulerOptions,
    SchedulerResult,
    SchedulingFailure,
    SearchCounters,
    find_schedule,
)
from repro.scheduling.serialize import result_from_record, result_to_record

#: Aggregate counters of the EP searches *actually executed* through the
#: warm-start layer in this process (replays contribute nothing).  This is
#: how a warm process proves it did zero search work: after a fully cached
#: workload, ``LIVE_SEARCH_COUNTERS.nodes_expanded`` is still 0 (asserted by
#: ``tests/test_cache.py`` and the CI cache smoke).
LIVE_SEARCH_COUNTERS = SearchCounters()

#: Guards merges into :data:`LIVE_SEARCH_COUNTERS`.  The serving executor
#: finishes searches on many threads at once, and ``int`` ``+=`` on a
#: dataclass attribute is a read-modify-write that can drop increments
#: under that interleaving.
_LIVE_COUNTERS_LOCK = threading.Lock()


def record_live_search(counters: SearchCounters) -> None:
    """Merge one *executed* (non-replayed) search into the process tally.

    The single choke point through which every live EP search run via the
    warm-start layer or the serving daemon is accounted; thread-safe so the
    "warm process did zero search work" invariant stays exact under the
    server's concurrent executor.
    """
    with _LIVE_COUNTERS_LOCK:
        LIVE_SEARCH_COUNTERS.merge(counters)


def options_cache_key(options: SchedulerOptions) -> Optional[Tuple]:
    """Hashable identity of the options, or ``None`` when uncacheable.

    Covers every :class:`SchedulerOptions` field that can change the search
    outcome or its accounting.  A caller-supplied termination condition is
    an arbitrary object with no stable fingerprint, so those options are
    uncacheable.
    """
    if options.termination is not None:
        return None
    return (
        options.single_source,
        options.use_invariant_heuristic,
        options.max_nodes,
        # validate does not change the search outcome, but a schedule cached
        # under validate=False was never checked; keep the contracts separate
        options.validate,
        options.invariant_precheck,
        options.defer_sources,
    )


@dataclass
class WarmStartStats:
    """Hit/miss accounting of one cache instance.

    ``hits`` counts in-memory (L1) replays, ``disk_hits`` replays loaded and
    validated from the disk store (L2), ``misses`` full misses that ran a
    real EP search, ``uncacheable`` pass-throughs (custom termination), and
    ``disk_rejected`` entries this cache's own lookups got quarantined
    (failed wire decode, identity check or replay validation) and had to
    recompute.
    """

    hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    uncacheable: int = 0
    disk_rejected: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "uncacheable": self.uncacheable,
            "disk_rejected": self.disk_rejected,
        }


class ScheduleWarmStartCache:
    """Two-level (memory LRU + optional disk) store of scheduling outcomes.

    ``store`` pins an explicit :class:`repro.cache.CacheStore` as the disk
    level; by default the process-wide active store is consulted on every
    call (so ``repro.cache.activate()`` retroactively upgrades existing
    instances, including :data:`GLOBAL_SCHEDULE_CACHE`).  Pass
    ``store=False`` to keep an instance memory-only regardless.

    Example (the second call replays instead of re-searching)::

        >>> from repro.apps.paper_nets import figure_5
        >>> cache = ScheduleWarmStartCache()
        >>> cache.find_schedule(figure_5(), "a").from_cache
        False
        >>> cache.find_schedule(figure_5(), "a").from_cache
        True
    """

    def __init__(self, capacity: int = 64, store=None):
        self.stats = WarmStartStats()
        self._store = store
        self._l1: "BoundedLRU[Tuple, Dict[str, object]]" = BoundedLRU(capacity)
        # Guards the stats counters and composite L1+stats transitions; the
        # BoundedLRU is itself thread-safe, but "miss then store" / "hit then
        # count" must not interleave into corrupted accounting when the
        # serving executor drives one cache from many threads.
        self._lock = threading.RLock()

    def __len__(self) -> int:
        return len(self._l1)

    def clear(self) -> None:
        """Drop the in-memory level and reset stats (disk entries survive)."""
        with self._lock:
            self._l1.clear()
            self.stats = WarmStartStats()

    def drop_memory(self) -> None:
        """Drop the in-memory level only, keeping the hit/miss accounting.

        Used by the benchmarks to force the next lookup onto the disk path
        (measuring what a fresh process would pay) without losing the stats
        accumulated so far.
        """
        self._l1.clear()

    def _disk(self):
        """The disk store to consult, or ``None`` (memory-only)."""
        if self._store is False:
            return None
        if self._store is not None:
            return self._store
        return artifact_cache.active_store()

    # -- record-level API (shared with the serve daemon) ---------------------
    def lookup_record(
        self,
        net: PetriNet,
        source: str,
        options: SchedulerOptions,
        *,
        fingerprint: Optional[str] = None,
        analysis=None,
    ) -> Optional[Dict[str, object]]:
        """The cached net-free result record for ``(net, source, options)``.

        Checks L1 then, when a disk store is active, L2 with full replay
        validation; L2 hits are promoted into L1.  ``None`` means a real
        search is needed (or the options are uncacheable).
        """
        record, _origin = self.lookup_record_with_origin(
            net, source, options, fingerprint=fingerprint, analysis=analysis
        )
        return record

    def lookup_record_with_origin(
        self,
        net: PetriNet,
        source: str,
        options: SchedulerOptions,
        *,
        fingerprint: Optional[str] = None,
        analysis=None,
    ) -> Tuple[Optional[Dict[str, object]], Optional[str]]:
        """Like :meth:`lookup_record`, plus where the record came from.

        Returns ``(record, origin)`` with ``origin`` one of ``"l1"``
        (in-memory hit), ``"disk"`` (validated L2 hit, promoted into L1) or
        ``None`` (miss / uncacheable).  The serving daemon uses the tag to
        attribute its cache metrics without poking at this cache's internals.
        """
        opts_key = options_cache_key(options)
        if opts_key is None:
            return None, None
        fingerprint = fingerprint or structural_fingerprint(net)
        key = (fingerprint, source, opts_key)
        record = self._l1.get(key)
        if record is not None:
            with self._lock:
                self.stats.hits += 1
            return record, "l1"
        store = self._disk()
        if store is not None:
            quarantined_before = store.stats.quarantined
            record = artifact_cache.load_schedule_record(
                store,
                net,
                net_fingerprint=fingerprint,
                source=source,
                options_fp=artifact_cache.options_fingerprint(opts_key),
                analysis=analysis,
            )
            if record is not None:
                with self._lock:
                    self.stats.disk_hits += 1
                self._l1.put(key, record)
                return record, "disk"
            # count only quarantines caused by *this* lookup (wire decode,
            # identity check or replay validation), not store-wide history
            with self._lock:
                self.stats.disk_rejected += store.stats.quarantined - quarantined_before
        return None, None

    def replay_hits(
        self, bindings: Sequence[Tuple[Tuple, Mapping[str, object]]]
    ) -> bool:
        """Count an L1 hit per ``(key, record)`` pair if every key still holds it.

        ``key`` is the L1 key of a lookup (``(fingerprint, source,
        options_cache_key)``) and ``record`` the object that lookup
        returned.  Each key is read in order, refreshing its recency as
        :meth:`lookup_record_with_origin` does; the first key that is gone
        or holds another record (evicted, then searched or loaded again)
        answers ``False`` and counts nothing.  The serving daemon's request
        memo replays a response only when this answers ``True``, so a memo
        hit is always an L1 hit on the records the response was built from.
        """
        for key, record in bindings:
            if self._l1.get(key) is not record:
                return False
        with self._lock:
            self.stats.hits += len(bindings)
        return True

    def store_record(
        self,
        net: PetriNet,
        source: str,
        options: SchedulerOptions,
        record: Mapping[str, object],
        *,
        fingerprint: Optional[str] = None,
    ) -> None:
        """Write one search outcome through to L1 and (when active) the disk."""
        opts_key = options_cache_key(options)
        if opts_key is None:
            return
        fingerprint = fingerprint or structural_fingerprint(net)
        record = dict(record)
        self._l1.put((fingerprint, source, opts_key), record)
        store = self._disk()
        if store is not None:
            artifact_cache.store_schedule_record(
                store,
                net_fingerprint=fingerprint,
                source=source,
                options_fp=artifact_cache.options_fingerprint(opts_key),
                record=record,
            )

    # -- result-level API ----------------------------------------------------
    def find_schedule(
        self,
        net: PetriNet,
        source_transition: str,
        *,
        options: Optional[SchedulerOptions] = None,
        analysis=None,
        raise_on_failure: bool = False,
    ) -> SchedulerResult:
        """Drop-in for :func:`repro.scheduling.ep.find_schedule` with replay.

        Example::

            >>> from repro.apps.divisors import build_divisors_system
            >>> from repro.scheduling.warmstart import ScheduleWarmStartCache
            >>> cache = ScheduleWarmStartCache()
            >>> net = build_divisors_system().net
            >>> first = cache.find_schedule(net, "src.divisors.in")
            >>> replay = cache.find_schedule(net.copy(), "src.divisors.in")
            >>> (first.from_cache, replay.from_cache)
            (False, True)
        """
        options = options or SchedulerOptions()
        opts_key = options_cache_key(options)
        if opts_key is None:
            with self._lock:
                self.stats.uncacheable += 1
            result = find_schedule(
                net,
                source_transition,
                options=options,
                analysis=analysis,
                raise_on_failure=raise_on_failure,
            )
            record_live_search(result.counters)
            return result
        fingerprint = structural_fingerprint(net)
        record = self.lookup_record(
            net, source_transition, options, fingerprint=fingerprint, analysis=analysis
        )
        if record is not None:
            # from_cache marks the replay; the record keeps the original
            # search's wall clock and counters, which is what consumers
            # report (PfcExperimentSetup.scheduling_seconds) -- 0.0 would
            # corrupt those tables
            result = result_from_record(
                net, source_transition, record, from_cache=True
            )
        else:
            with self._lock:
                self.stats.misses += 1
            result = find_schedule(
                net, source_transition, options=options, analysis=analysis
            )
            record_live_search(result.counters)
            self.store_record(
                net,
                source_transition,
                options,
                result_to_record(result),
                fingerprint=fingerprint,
            )
        if raise_on_failure and not result.success:
            raise SchedulingFailure(
                f"no schedule found for {source_transition!r}: {result.failure_reason}"
            )
        return result


#: Process-wide default instance used by the experiment harnesses, the
#: cache-aware ``find_all_schedules`` paths and the benchmarks.
GLOBAL_SCHEDULE_CACHE = ScheduleWarmStartCache()


def cached_find_schedule(
    net: PetriNet,
    source_transition: str,
    *,
    options: Optional[SchedulerOptions] = None,
    analysis=None,
    raise_on_failure: bool = False,
) -> SchedulerResult:
    """Module-level convenience over :data:`GLOBAL_SCHEDULE_CACHE`.

    Identical to :meth:`ScheduleWarmStartCache.find_schedule` on the shared
    process-wide instance; with ``repro.cache.activate()`` (or
    ``REPRO_CACHE=1``) outcomes additionally persist to disk and replay in
    later processes.
    """
    return GLOBAL_SCHEDULE_CACHE.find_schedule(
        net,
        source_transition,
        options=options,
        analysis=analysis,
        raise_on_failure=raise_on_failure,
    )
