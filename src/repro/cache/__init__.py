"""The disk level of the scheduling daemon's record cache.

The paper's pitch is *compile-time* scheduling: the expensive EP search runs
once and its quasi-static schedule is reused at runtime.  The library below
:mod:`repro.serve` always searches, so one net gives one result whatever the
environment says; the daemon is what amortizes searches across requests and
restarts.  Its :class:`~repro.serve.SchedulingService` is the record cache:
scheduling outcomes (success *and* failure) keyed on
``(structural_fingerprint, source, options_cache_key(options))``, held in an
in-memory :class:`~repro.util.BoundedLRU` (L1) in front of an optional disk
store (L2), so a structurally identical net replays the record instead of
re-searching, however it was rebuilt.  This package holds the disk level:

* :func:`activate` -- opens the disk store, one sqlite file under
  ``.cache/repro/`` (``REPRO_CACHE_DIR`` moves it).  Where sqlite cannot
  open it, the store is a :class:`NullStore` and every lookup misses;
* :func:`load_schedule_record` / :func:`store_schedule_record` -- read and
  write one scheduling record under its full identity;
* :func:`options_cache_key` -- the options part of the key, defined for
  every options value.

A disk entry is a canonical schedule record
(``scheduling/serialize.result_to_record``, which embeds the original
:class:`~repro.scheduling.ep.SearchCounters`) under ``(schema_version,
structural_fingerprint, options_fingerprint, source_transition)`` -- the
options fingerprint covers every :class:`~repro.scheduling.ep.SchedulerOptions`
field, since each can change the outcome or its accounting.

Integrity contract (see ``docs/architecture.md``):

* every entry is schema-version-stamped and checksummed
  (:mod:`repro.cache.stores`); anything that fails decoding is
  **quarantined** and reported as a miss -- a bad cache can cost a
  recomputation, never an exception and never a wrong schedule;
* a payload must carry the identity it is filed under
  (:func:`schedule_entry_problem`, which ``python -m repro.cache verify``
  runs too);
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
    ...     payloads, _bindings = asyncio.run(service.schedule_net(figure_5(), ["a"], None))
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
from dataclasses import fields
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple

from repro.cache.stores import (
    SCHEMA_VERSION,
    CacheStore,
    EntryInfo,
    NullStore,
    SqliteStore,
    StoreStats,
)
from repro.petrinet.analysis import StructuralAnalysis
from repro.scheduling.ep import SchedulerOptions, SearchCounters
from repro.scheduling.serialize import schedule_from_dict

__all__ = [
    "SCHEMA_VERSION",
    "CacheStore",
    "EntryInfo",
    "NullStore",
    "SqliteStore",
    "StoreStats",
    "activate",
    "cache_root",
    "load_schedule_record",
    "options_cache_key",
    "options_fingerprint",
    "schedule_cache_key",
    "schedule_entry_problem",
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
_RECORD_FIELDS = frozenset(
    {"schedule", "tree_nodes", "elapsed_seconds", "failure_reason", "counters"}
)


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


def schedule_entry_problem(
    payload: Mapping[str, object],
    *,
    net_fingerprint: str,
    source: str,
    options_fp: str,
) -> Optional[str]:
    """Why a schedule entry's payload does not belong under its identity.

    The payload must carry the exact ``(net_fingerprint, source,
    options_fp)`` it is filed under (catching key collisions and hand-edited
    entries) and a result record of the current shape: every field
    ``result_to_record`` writes, and counters :class:`SearchCounters` still
    has.  Returns the quarantine reason, or ``None`` when the payload passes.
    Live lookups (:func:`load_schedule_record`) and the offline
    ``python -m repro.cache verify`` both run this one check.
    """
    if (
        payload.get("net_fingerprint") != net_fingerprint
        or payload.get("source") != source
        or payload.get("options_fp") != options_fp
    ):
        return "identity mismatch (stale key collision)"
    record = payload.get("record")
    if (
        not isinstance(record, Mapping)
        or not _RECORD_FIELDS <= set(record)
        or not isinstance(record["counters"], Mapping)
        or not set(record["counters"]) <= _COUNTER_NAMES
    ):
        return "malformed result record"
    return None


def _replay_validates(net, source: str, record: Mapping[str, object]) -> bool:
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
        # memoise on the indexed snapshot: a warm run validating one record
        # per source must not rebuild the structural analysis (ECS
        # partition, degrees) once per record
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
) -> Optional[Dict[str, object]]:
    """Fetch + fully validate one scheduling record; ``None`` on any doubt.

    Beyond the store-level wire checks, the payload must pass
    :func:`schedule_entry_problem` and its schedule must replay-validate
    against the live ``net``.  Entries failing either check are quarantined.
    """
    key = schedule_cache_key(net_fingerprint, source, options_fp)
    payload = store.get(KIND_SCHEDULE, key)
    if payload is None:
        return None
    reason = schedule_entry_problem(
        payload, net_fingerprint=net_fingerprint, source=source, options_fp=options_fp
    )
    if reason is None and not _replay_validates(net, source, payload["record"]):
        reason = "schedule failed replay validation"
    if reason is not None:
        store.quarantine(KIND_SCHEDULE, key, reason)
        return None
    return dict(payload["record"])


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


def options_cache_key(options: SchedulerOptions) -> Tuple:
    """Hashable identity of the options.

    Covers every :class:`SchedulerOptions` field, since each can change the
    search outcome or its accounting; every field is plain data, so every
    options value has a key.
    """
    return (options.use_invariant_heuristic, options.max_nodes, options.place_bound)
