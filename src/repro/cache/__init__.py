"""Persistent cross-process cache of compile-time scheduling artifacts.

The paper's pitch is *compile-time* scheduling: the expensive EP search runs
once and its quasi-static schedule is reused at runtime.  The in-memory
warm-start caches (:mod:`repro.scheduling.warmstart`, the T-invariant basis
store of :mod:`repro.petrinet.invariants`) already amortize that cost within
one process; this package extends them across processes with a disk store
under ``.cache/repro/`` (override with ``REPRO_CACHE_DIR``), so repeated CLI,
benchmark and experiment invocations replay schedules instead of
re-searching.

What is persisted, and under which key:

* canonical schedule records (``scheduling/serialize.result_to_record``,
  which embed the original :class:`~repro.scheduling.ep.SearchCounters`)
  under ``(schema_version, structural_fingerprint, options_fingerprint,
  source_transition)`` -- the options fingerprint covers every
  :class:`~repro.scheduling.ep.SchedulerOptions` field that can change the
  outcome or its accounting;
* complete T-invariant bases under ``(schema_version, incidence_fingerprint,
  max_rows)``; a basis cut at its row cap is never written.

Integrity contract (see ``docs/architecture.md``):

* every entry is schema-version-stamped and checksummed
  (:mod:`repro.cache.stores`); anything that fails decoding is
  **quarantined** and reported as a miss -- a bad cache can cost a
  recomputation, never an exception and never a wrong schedule;
* loaded schedule records are **replay-validated** against the live net
  (rebuild + ``Schedule.validate``) before being trusted; loaded invariant
  bases are re-checked against ``C x = 0``.  A stale entry whose key
  collides with a different net is therefore caught even past the
  fingerprint check.

Activation: the cache is opt-in.  Call :func:`activate` (or pass
``--cache`` to ``benchmarks/bench_scheduler.py``), or set ``REPRO_CACHE=1``
in the environment; ``REPRO_CACHE_DIR`` moves the store.  The store is one
sqlite file (stdlib ``sqlite3``); where sqlite cannot open it, the cache is
a :class:`NullStore` and every lookup misses.
``python -m repro.cache {stats,clear,verify}`` inspects and maintains the
store on disk.

Example -- schedule once, replay from disk in any later process::

    >>> import repro.cache as cache
    >>> from repro.scheduling.warmstart import cached_find_schedule
    >>> store = cache.activate(path="/tmp/repro-cache-demo")   # doctest: +SKIP
    >>> # first process searches and persists; every later process replays:
    >>> result = cached_find_schedule(net, "src.divisors.in")  # doctest: +SKIP
    >>> result.from_cache                                      # doctest: +SKIP
    True
"""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

from repro.cache.stores import (
    SCHEMA_VERSION,
    CacheStore,
    EntryInfo,
    NullStore,
    SqliteStore,
    StoreStats,
)

__all__ = [
    "SCHEMA_VERSION",
    "CacheStore",
    "EntryInfo",
    "NullStore",
    "SqliteStore",
    "StoreStats",
    "cache_root",
    "open_store",
    "activate",
    "deactivate",
    "active_store",
    "suspended",
    "reset_active_store",
    "options_fingerprint",
    "schedule_cache_key",
    "load_schedule_record",
    "store_schedule_record",
    "basis_cache_key",
    "load_invariant_basis",
    "store_invariant_basis",
]

#: Default on-disk location, relative to the current working directory.
DEFAULT_CACHE_DIR = os.path.join(".cache", "repro")

#: Environment knobs (documented in the README and docs/user_guide.md).
ENV_ENABLE = "REPRO_CACHE"
ENV_DIR = "REPRO_CACHE_DIR"


def cache_root(path: Optional[os.PathLike] = None) -> Path:
    """Resolve the cache directory: explicit ``path`` > ``$REPRO_CACHE_DIR`` > default."""
    if path is not None:
        return Path(path)
    env = os.environ.get(ENV_DIR)
    if env:
        return Path(env)
    return Path(DEFAULT_CACHE_DIR)


def open_store(path: Optional[os.PathLike] = None) -> CacheStore:
    """Open (creating if needed) the sqlite disk store; never raises.

    When sqlite cannot open a database at the location (unwritable
    directory, broken sqlite), a :class:`NullStore` naming the error is
    returned, so callers degrade to cache misses instead of crashing.
    """
    root = cache_root(path)
    try:
        return SqliteStore(root)
    except Exception as error:  # unusable location / broken sqlite
        return NullStore(f"no usable cache at {root} ({type(error).__name__}: {error})")


# ---------------------------------------------------------------------------
# process-wide active store
# ---------------------------------------------------------------------------

_UNRESOLVED = object()
_ACTIVE: object = _UNRESOLVED
_ACTIVE_PID: Optional[int] = None


def _env_enabled() -> bool:
    return os.environ.get(ENV_ENABLE, "").strip().lower() in {"1", "true", "on", "yes"}


def active_store() -> Optional[CacheStore]:
    """The process-wide store consulted by the scheduling layers, or ``None``.

    Resolved lazily on first call: an explicit :func:`activate` wins;
    otherwise ``REPRO_CACHE=1`` in the environment activates the default
    store, and anything else leaves the disk cache off (the in-memory
    warm-start caches still apply).

    **Fork safety**: the resolution is per PID.  A forked child never
    reuses a store inherited from its parent -- sqlite connections must not
    cross ``fork()`` -- and re-resolves from the environment instead.
    """
    global _ACTIVE, _ACTIVE_PID
    if _ACTIVE is _UNRESOLVED or _ACTIVE_PID != os.getpid():
        # first call in this process, or state inherited across fork():
        # abandon (without closing -- closing a forked sqlite connection
        # could checkpoint the parent's WAL) and resolve afresh
        _ACTIVE = open_store() if _env_enabled() else None
        _ACTIVE_PID = os.getpid()
    return _ACTIVE  # type: ignore[return-value]


def activate(
    path: Optional[os.PathLike] = None,
    store: Optional[CacheStore] = None,
) -> CacheStore:
    """Turn the process-wide disk cache on and return the store in use.

    Pass an explicit ``store`` (e.g. a test fixture), or let the default
    resolution run (``path`` / ``$REPRO_CACHE_DIR`` / ``.cache/repro``).
    """
    global _ACTIVE, _ACTIVE_PID
    _ACTIVE = store if store is not None else open_store(path)
    _ACTIVE_PID = os.getpid()
    return _ACTIVE


def _close_if_owned() -> None:
    """Close the active store only when this process opened it."""
    if isinstance(_ACTIVE, CacheStore) and _ACTIVE_PID == os.getpid():
        _ACTIVE.close()


def deactivate() -> None:
    """Turn the process-wide disk cache off (ignoring the environment)."""
    global _ACTIVE, _ACTIVE_PID
    _close_if_owned()
    _ACTIVE = None
    _ACTIVE_PID = os.getpid()


def reset_active_store() -> None:
    """Forget any resolution so the next :func:`active_store` re-reads the env."""
    global _ACTIVE, _ACTIVE_PID
    _close_if_owned()
    _ACTIVE = _UNRESOLVED
    _ACTIVE_PID = None


@contextmanager
def suspended():
    """Temporarily hide the active store (``active_store() -> None``) without
    closing it; the previous state is restored on exit.  Used by the
    benchmark's timing loop, which must measure real EP searches
    even when the caller (or ``REPRO_CACHE=1``) has a cache active."""
    global _ACTIVE, _ACTIVE_PID
    saved, saved_pid = _ACTIVE, _ACTIVE_PID
    _ACTIVE, _ACTIVE_PID = None, os.getpid()
    try:
        yield
    finally:
        _ACTIVE, _ACTIVE_PID = saved, saved_pid


# ---------------------------------------------------------------------------
# schedule records
# ---------------------------------------------------------------------------

KIND_SCHEDULE = "schedule"
KIND_BASIS = "t_invariant_basis"


def options_fingerprint(opts_key: Tuple) -> str:
    """Stable digest of a hashable options identity tuple.

    The tuple comes from :func:`repro.scheduling.warmstart.options_cache_key`
    and covers every option that can change the search outcome or its
    accounting, so two processes running with the same knobs hit the same
    entries.
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
    from dataclasses import fields as dataclass_fields

    from repro.scheduling.ep import SearchCounters

    known = {f.name for f in dataclass_fields(SearchCounters)}
    return set(counters) <= known


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
        from repro.petrinet.analysis import StructuralAnalysis
        from repro.scheduling.serialize import schedule_from_dict

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
# T-invariant bases
# ---------------------------------------------------------------------------


def basis_cache_key(incidence_fp: str, max_rows: int) -> str:
    """The store key of one T-invariant basis (schema version included)."""
    return f"v{SCHEMA_VERSION}.{incidence_fp}.rows{max_rows}"


def load_invariant_basis(
    store: CacheStore, net, *, incidence_fp: str, max_rows: int
) -> Optional[List[Dict[str, int]]]:
    """Fetch + validate a T-invariant basis; ``None`` on any doubt.

    Every loaded vector is re-checked against ``C x = 0`` on the live net
    before the basis is trusted (the invariant equivalent of schedule
    replay-validation); a basis that fails is quarantined.
    """
    key = basis_cache_key(incidence_fp, max_rows)
    payload = store.get(KIND_BASIS, key)
    if payload is None:
        return None
    if payload.get("incidence_fingerprint") != incidence_fp or payload.get("max_rows") != max_rows:
        store.quarantine(KIND_BASIS, key, "identity mismatch (stale key collision)")
        return None
    basis = payload.get("basis")
    if not isinstance(basis, list):
        store.quarantine(KIND_BASIS, key, "malformed basis payload")
        return None
    try:
        from repro.petrinet.invariants import is_t_invariant

        for invariant in basis:
            if not isinstance(invariant, dict) or not invariant:
                raise ValueError("not a sparse invariant vector")
            if not all(
                isinstance(t, str) and isinstance(c, int) and c > 0
                for t, c in invariant.items()
            ):
                raise ValueError("invariant entries must be positive integers")
            if not is_t_invariant(net, invariant):
                raise ValueError("vector is not a T-invariant of the live net")
    except Exception:
        store.quarantine(KIND_BASIS, key, "basis failed validation against the live net")
        return None
    return [dict(invariant) for invariant in basis]


def store_invariant_basis(
    store: CacheStore,
    *,
    incidence_fp: str,
    max_rows: int,
    basis: List[Dict[str, int]],
) -> None:
    """Persist a computed T-invariant basis under its incidence identity."""
    store.put(
        KIND_BASIS,
        basis_cache_key(incidence_fp, max_rows),
        {
            "incidence_fingerprint": incidence_fp,
            "max_rows": max_rows,
            "basis": [dict(invariant) for invariant in basis],
        },
    )
