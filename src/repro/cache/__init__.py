"""The scheduling daemon's record cache: an in-memory L1 over a disk L2.

The paper's pitch is *compile-time* scheduling: the expensive EP search runs
once and its quasi-static schedule is reused at runtime.  The library below
:mod:`repro.serve` always searches, so one net gives one result whatever the
environment says; the daemon is what amortizes searches across requests and
restarts, and this package holds its cache:

* :class:`ScheduleWarmStartCache` -- scheduling outcomes (success *and*
  failure) keyed on ``(structural_fingerprint, source,
  options_cache_key(options))``: an in-memory
  :class:`~repro.util.BoundedLRU` (L1) in front of an optional disk store
  (L2).  A structurally identical net replays the record instead of
  re-searching, however it was rebuilt;
* :func:`activate` -- opens the disk store, one sqlite file under
  ``.cache/repro/`` (``REPRO_CACHE_DIR`` moves it).  Where sqlite cannot
  open it, the store is a :class:`NullStore` and every lookup misses.

A disk entry is a canonical schedule record
(``scheduling/serialize.result_to_record``, which embeds the original
:class:`~repro.scheduling.ep.SearchCounters`) under ``(schema_version,
structural_fingerprint, options_fingerprint, source_transition)`` -- the
options fingerprint covers every :class:`~repro.scheduling.ep.SchedulerOptions`
field that can change the outcome or its accounting.

Integrity contract (see ``docs/architecture.md``):

* every entry is schema-version-stamped and checksummed
  (:mod:`repro.cache.stores`); anything that fails decoding is
  **quarantined** and reported as a miss -- a bad cache can cost a
  recomputation, never an exception and never a wrong schedule;
* loaded schedule records are **replay-validated** against the live net
  (rebuild + ``Schedule.validate``) before being trusted, so a stale entry
  whose key collides with a different net is caught even past the
  fingerprint check.

``python -m repro.cache {stats,clear,verify}`` inspects and maintains the
store on disk.

Example -- a second service over the same store (a restarted daemon, or
another process) replays from disk instead of searching::

    >>> import asyncio, tempfile
    >>> from repro.apps.paper_nets import figure_5
    >>> from repro.serve import SchedulingService
    >>> directory = tempfile.TemporaryDirectory()
    >>> store = activate(path=directory.name)
    >>> def schedule_a():
    ...     service = SchedulingService(store=store)
    ...     payloads = asyncio.run(service.schedule_net(figure_5(), ["a"], None))
    ...     service.close()
    ...     return payloads[0]["from_cache"], service.snapshot()["disk_hits"]
    >>> schedule_a()
    (False, 0)
    >>> schedule_a()
    (True, 1)
    >>> store.close(); directory.cleanup()
"""

from __future__ import annotations

import hashlib
import os
import threading
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.cache.stores import (
    SCHEMA_VERSION,
    CacheStore,
    EntryInfo,
    NullStore,
    SqliteStore,
    StoreStats,
)
from repro.petrinet.analysis import StructuralAnalysis
from repro.petrinet.fingerprint import structural_fingerprint
from repro.petrinet.net import PetriNet
from repro.scheduling.ep import SchedulerOptions, SearchCounters
from repro.scheduling.serialize import schedule_from_dict
from repro.util import BoundedLRU

__all__ = [
    "SCHEMA_VERSION",
    "CacheStore",
    "EntryInfo",
    "NullStore",
    "ScheduleWarmStartCache",
    "SqliteStore",
    "StoreStats",
    "WarmStartStats",
    "activate",
    "cache_root",
    "load_schedule_record",
    "options_cache_key",
    "options_fingerprint",
    "schedule_cache_key",
    "store_schedule_record",
]

#: Default on-disk location, relative to the current working directory.
DEFAULT_CACHE_DIR = os.path.join(".cache", "repro")

#: Environment variable moving the store (documented in the README and
#: docs/user_guide.md).
ENV_DIR = "REPRO_CACHE_DIR"


def cache_root(path: Optional[os.PathLike] = None) -> Path:
    """Resolve the cache directory: explicit ``path`` > ``$REPRO_CACHE_DIR`` > default."""
    if path is not None:
        return Path(path)
    env = os.environ.get(ENV_DIR)
    if env:
        return Path(env)
    return Path(DEFAULT_CACHE_DIR)


def activate(path: Optional[os.PathLike] = None) -> CacheStore:
    """Open (creating if needed) the sqlite disk store and return it; never raises.

    The location is ``path``, else ``$REPRO_CACHE_DIR``, else
    ``.cache/repro``.  When sqlite cannot open a database there (unwritable
    directory, broken sqlite), a :class:`NullStore` naming the error is
    returned, so callers degrade to cache misses instead of crashing.
    Nothing is registered: the caller hands the store to whoever reads it
    (``SchedulingService(store=...)``) and closes it.
    """
    root = cache_root(path)
    try:
        return SqliteStore(root)
    except Exception as error:  # unusable location / broken sqlite
        return NullStore(f"no usable cache at {root} ({type(error).__name__}: {error})")


# ---------------------------------------------------------------------------
# schedule records on disk
# ---------------------------------------------------------------------------

KIND_SCHEDULE = "schedule"

_COUNTER_NAMES = frozenset(f.name for f in fields(SearchCounters))


def options_fingerprint(opts_key: Tuple) -> str:
    """Stable digest of a hashable options identity tuple.

    The tuple comes from :func:`options_cache_key` and covers every option
    that can change the search outcome or its accounting, so two processes
    running with the same knobs hit the same entries.
    """
    return hashlib.sha256(repr(opts_key).encode("utf-8")).hexdigest()


def schedule_cache_key(net_fingerprint: str, source: str, options_fp: str) -> str:
    """The store key of one scheduling outcome (schema version included)."""
    return f"v{SCHEMA_VERSION}.{net_fingerprint}.{options_fp}.{source}"


def _record_fields_sane(record: Mapping[str, object]) -> bool:
    """Shape check of a deserialized result record (pre replay-validation)."""
    required = {"schedule", "tree_nodes", "elapsed_seconds", "failure_reason", "counters"}
    if not isinstance(record, Mapping) or not required <= set(record):
        return False
    counters = record["counters"]
    if not isinstance(counters, Mapping):
        return False
    return set(counters) <= _COUNTER_NAMES


def _replay_validates(net, source: str, record: Mapping[str, object], analysis=None) -> bool:
    """True when the record's schedule replays cleanly against the live net.

    Rebuilds the schedule from its canonical dict bound to ``net`` and runs
    the Section 4.1 validation; any exception (unknown places, ECS mismatch,
    disabled transitions...) means the entry does not belong to this net.
    Failure outcomes (``schedule is None``) carry nothing to replay and are
    accepted on the strength of the fingerprint match.
    """
    schedule_data = record.get("schedule")
    if schedule_data is None:
        return True
    try:
        schedule = schedule_from_dict(net, schedule_data)
        if schedule.source_transition != source:
            return False
        if analysis is None:
            # memoise on the indexed snapshot: a warm run validating one
            # record per source must not rebuild the structural analysis
            # (ECS partition, degrees) once per record
            snapshot_cache = net.indexed().analysis_cache
            analysis = snapshot_cache.get("structural_analysis")
            if analysis is None:
                analysis = StructuralAnalysis.of(net)
                snapshot_cache["structural_analysis"] = analysis
        schedule.validate(analysis)
    except Exception:
        return False
    return True


def load_schedule_record(
    store: CacheStore,
    net,
    *,
    net_fingerprint: str,
    source: str,
    options_fp: str,
    analysis=None,
) -> Optional[Dict[str, object]]:
    """Fetch + fully validate one scheduling record; ``None`` on any doubt.

    Beyond the store-level wire checks, the payload must carry the exact
    ``(net_fingerprint, source, options_fp)`` identity it is filed under
    (catching key collisions and hand-edited entries) and its schedule must
    replay-validate against the live ``net``.  Entries failing either check
    are quarantined.
    """
    key = schedule_cache_key(net_fingerprint, source, options_fp)
    payload = store.get(KIND_SCHEDULE, key)
    if payload is None:
        return None
    if (
        payload.get("net_fingerprint") != net_fingerprint
        or payload.get("source") != source
        or payload.get("options_fp") != options_fp
    ):
        store.quarantine(KIND_SCHEDULE, key, "identity mismatch (stale key collision)")
        return None
    record = payload.get("record")
    if not _record_fields_sane(record):
        store.quarantine(KIND_SCHEDULE, key, "malformed result record")
        return None
    if not _replay_validates(net, source, record, analysis):
        store.quarantine(KIND_SCHEDULE, key, "schedule failed replay validation")
        return None
    return dict(record)


def store_schedule_record(
    store: CacheStore,
    *,
    net_fingerprint: str,
    source: str,
    options_fp: str,
    record: Mapping[str, object],
) -> None:
    """Persist one scheduling record under its full identity."""
    store.put(
        KIND_SCHEDULE,
        schedule_cache_key(net_fingerprint, source, options_fp),
        {
            "net_fingerprint": net_fingerprint,
            "source": source,
            "options_fp": options_fp,
            "record": dict(record),
        },
    )


# ---------------------------------------------------------------------------
# the record cache: L1 in memory, L2 on disk
# ---------------------------------------------------------------------------


def options_cache_key(options: SchedulerOptions) -> Optional[Tuple]:
    """Hashable identity of the options, or ``None`` when uncacheable.

    Covers every :class:`SchedulerOptions` field that can change the search
    outcome or its accounting.  A caller-supplied termination condition is
    an arbitrary object with no stable fingerprint, so those options are
    uncacheable.
    """
    if options.termination is not None:
        return None
    return (options.use_invariant_heuristic, options.max_nodes)


@dataclass
class WarmStartStats:
    """Lookup accounting of one cache instance.

    Every lookup counts once: ``hits`` in-memory (L1) replays,
    ``disk_hits`` replays loaded and validated from the disk store (L2),
    ``misses`` lookups that found nothing at either level, and
    ``uncacheable`` lookups whose options have no key (custom
    termination).  ``disk_rejected`` counts the entries this cache's own
    lookups got quarantined (failed wire decode, identity check or replay
    validation) and so had to miss.
    """

    hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    uncacheable: int = 0
    disk_rejected: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain ``{counter: value}`` dict (the daemon's ``stats`` reports it)."""
        return {
            "hits": self.hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "uncacheable": self.uncacheable,
            "disk_rejected": self.disk_rejected,
        }


class ScheduleWarmStartCache:
    """Two-level (memory LRU + optional disk) store of scheduling outcomes.

    ``store`` is the disk level, a :class:`CacheStore` such as the one
    :func:`activate` opens; ``None`` keeps the instance memory-only.  The
    daemon's :class:`~repro.serve.SchedulingService` owns one instance: it
    looks a record up, searches on a miss and writes the outcome through.

    Example (a rebuilt net finds the record stored for the first)::

        >>> from repro.apps.paper_nets import figure_5
        >>> from repro.scheduling.ep import SchedulerOptions, find_schedule
        >>> from repro.scheduling.serialize import result_to_record
        >>> cache, options = ScheduleWarmStartCache(), SchedulerOptions()
        >>> cache.lookup_record_with_origin(figure_5(), "a", options)
        (None, None)
        >>> record = result_to_record(find_schedule(figure_5(), "a"))
        >>> cache.store_record(figure_5(), "a", options, record)
        >>> cache.lookup_record_with_origin(figure_5(), "a", options)[1]
        'l1'
    """

    def __init__(self, capacity: int = 64, store: Optional[CacheStore] = None):
        self.stats = WarmStartStats()
        self._store = store
        self._l1: "BoundedLRU[Tuple, Dict[str, object]]" = BoundedLRU(capacity)
        # Guards the stats counters; the BoundedLRU is itself thread-safe,
        # but the serving executor drives one cache from many threads and
        # ``+=`` on a counter is a read-modify-write.
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._l1)

    def _count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self.stats, name, getattr(self.stats, name) + amount)

    def lookup_record_with_origin(
        self,
        net: PetriNet,
        source: str,
        options: SchedulerOptions,
        *,
        fingerprint: Optional[str] = None,
        analysis=None,
    ) -> Tuple[Optional[Dict[str, object]], Optional[str]]:
        """The cached net-free result record for ``(net, source, options)``,
        and where it came from.

        Checks L1 then, with a disk store, L2 with full replay validation;
        L2 hits are promoted into L1.  Returns ``(record, origin)`` with
        ``origin`` one of ``"l1"``, ``"disk"`` or ``None``: a miss, or
        uncacheable options, and a live search is needed.  The serving
        daemon uses the tag to attribute its cache metrics.
        """
        opts_key = options_cache_key(options)
        if opts_key is None:
            self._count("uncacheable")
            return None, None
        fingerprint = fingerprint or structural_fingerprint(net)
        key = (fingerprint, source, opts_key)
        record = self._l1.get(key)
        if record is not None:
            self._count("hits")
            return record, "l1"
        if self._store is not None:
            quarantined_before = self._store.stats.quarantined
            record = load_schedule_record(
                self._store,
                net,
                net_fingerprint=fingerprint,
                source=source,
                options_fp=options_fingerprint(opts_key),
                analysis=analysis,
            )
            if record is not None:
                self._count("disk_hits")
                self._l1.put(key, record)
                return record, "disk"
            # count only quarantines caused by *this* lookup (wire decode,
            # identity check or replay validation), not store-wide history
            self._count("disk_rejected", self._store.stats.quarantined - quarantined_before)
        self._count("misses")
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
        self._count("hits", len(bindings))
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
        """Write one search outcome through to L1 and, with a disk store, L2."""
        opts_key = options_cache_key(options)
        if opts_key is None:
            return
        fingerprint = fingerprint or structural_fingerprint(net)
        record = dict(record)
        self._l1.put((fingerprint, source, opts_key), record)
        if self._store is not None:
            store_schedule_record(
                self._store,
                net_fingerprint=fingerprint,
                source=source,
                options_fp=options_fingerprint(opts_key),
                record=record,
            )
