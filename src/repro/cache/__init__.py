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
  open it, the store is disabled and every lookup misses;
* :class:`SqliteStore` -- ``load`` reads and replay-validates one scheduling
  record, ``save`` files one; ``entries``, ``verify``, ``clear`` and
  ``quarantined_count`` serve ``python -m repro.cache``;
* :func:`options_cache_key` -- the options part of the key, defined for
  every options value.

A disk entry is a canonical schedule record
(``scheduling/serialize.result_to_record``, which embeds the original
:class:`~repro.scheduling.ep.SearchCounters`) under ``(schema_version,
structural_fingerprint, options_fingerprint, source_transition)`` -- the
options fingerprint covers every :class:`~repro.scheduling.ep.SchedulerOptions`
field, since each can change the outcome or its accounting.

Integrity contract (see ``docs/architecture.md``):

* every entry travels in a *wire record*: the payload wrapped with
  :data:`SCHEMA_VERSION` and a SHA-256 checksum of its canonical encoding;
  anything that fails decoding (torn write, foreign schema, bit rot) is
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
import json
import os
import sqlite3
import threading
import time
from dataclasses import fields
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

from repro.scheduling.ep import SchedulerOptions, SearchCounters
from repro.scheduling.serialize import schedule_from_dict

__all__ = [
    "SCHEMA_VERSION",
    "SqliteStore",
    "activate",
    "cache_root",
    "options_cache_key",
    "schedule_entry_problem",
]

#: Version of the on-disk entry format.  Stamped into every wire record and
#: into every cache key; entries written under any other version are ignored
#: (and dropped on contact) instead of being interpreted.
SCHEMA_VERSION = 1

#: Default on-disk location, relative to the current working directory.
DEFAULT_CACHE_DIR = os.path.join(".cache", "repro")

#: Environment variable moving the store (documented in the README and
#: docs/user_guide.md).
ENV_DIR = "REPRO_CACHE_DIR"

#: The ``kind`` column of every entry the store writes; ``verify``
#: quarantines an entry of any other kind, since no lookup reads it.
_KIND = "schedule"

_COUNTER_NAMES = frozenset(f.name for f in fields(SearchCounters))
_RECORD_FIELDS = frozenset(
    {"schedule", "tree_nodes", "elapsed_seconds", "failure_reason", "counters"}
)


def cache_root(path: Optional[os.PathLike] = None) -> Path:
    """Resolve the cache directory: explicit ``path`` > ``$REPRO_CACHE_DIR`` > default."""
    if path is not None:
        return Path(path)
    env = os.environ.get(ENV_DIR)
    if env:
        return Path(env)
    return Path(DEFAULT_CACHE_DIR)


def activate(path: Optional[os.PathLike] = None) -> "SqliteStore":
    """Open (creating if needed) the sqlite disk store and return it; never raises.

    The location is ``path``, else ``$REPRO_CACHE_DIR``, else
    ``.cache/repro``.  When sqlite cannot open a database there (unwritable
    directory, broken sqlite), the store comes back disabled, its
    ``describe()`` naming the error, so callers degrade to cache misses
    instead of crashing.  Nothing is registered: the caller hands the store
    to whoever reads it (``SchedulingService(store=...)``) and closes it.
    """
    return SqliteStore(cache_root(path))


def options_cache_key(options: SchedulerOptions) -> Tuple:
    """Hashable identity of the options.

    Covers every :class:`SchedulerOptions` field, since each can change the
    search outcome or its accounting; every field is plain data, so every
    options value has a key.
    """
    return (options.use_invariant_heuristic, options.max_nodes, options.place_bound)


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
    Live lookups (:meth:`SqliteStore.load`) and the offline
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


def _options_fingerprint(opts_key: Tuple) -> str:
    """Stable digest of an :func:`options_cache_key` tuple, so two
    processes running with the same knobs hit the same entries."""
    return hashlib.sha256(repr(opts_key).encode("utf-8")).hexdigest()


def _schedule_key(net_fingerprint: str, source: str, options_fp: str) -> str:
    """The store key of one scheduling outcome (schema version included)."""
    return f"v{SCHEMA_VERSION}.{net_fingerprint}.{options_fp}.{source}"


def _encode_wire(payload: Dict[str, object]) -> str:
    """Wrap ``payload`` into the versioned, checksummed wire record."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    checksum = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return json.dumps(
        {
            "schema": SCHEMA_VERSION,
            "checksum": checksum,
            "created": time.time(),
            "payload": payload,
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def _decode_wire(blob: str) -> Optional[Dict[str, object]]:
    """Inverse of :func:`_encode_wire`; ``None`` for anything not pristine:
    non-JSON, another :data:`SCHEMA_VERSION`, or a payload that does not
    hash to the recorded checksum."""
    try:
        wire = json.loads(blob)
    except (ValueError, TypeError):
        return None
    if not isinstance(wire, dict) or wire.get("schema") != SCHEMA_VERSION:
        return None
    payload = wire.get("payload")
    if not isinstance(payload, dict):
        return None
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    if hashlib.sha256(body.encode("utf-8")).hexdigest() != wire.get("checksum"):
        return None
    return payload


def _replay_validates(net, source: str, record: Mapping[str, object]) -> bool:
    """True when the record's schedule replays cleanly against the live net.

    Rebuilds the schedule from its canonical dict bound to ``net`` and runs
    the Section 4.1 validation, which reads the structural analysis memoised
    on the net's snapshot, so the records of one net's sources share one
    build; any exception (unknown places, ECS mismatch, disabled
    transitions...) means the entry does not belong to this net.
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
        schedule.validate()
    except Exception:
        return False
    return True


class SqliteStore:
    """The disk L2: scheduling records in one sqlite database file.

    Layout: an ``entries(kind, key, blob, created)`` table holding wire
    records (``kind`` is always ``"schedule"``) and a ``quarantine(kind,
    key, blob, reason, ts)`` table for entries that failed a gate.  WAL
    journaling plus a busy timeout make concurrent readers cheap; concurrent
    writers serialize on sqlite's file lock, and a writer that still loses
    the race simply drops its write.  An unreadable / corrupt database file
    is rotated to ``store.sqlite.corrupt-<n>`` and a fresh database is
    started in its place.  **No public method ever raises**: a broken cache
    must never break the search that consulted it, which can always
    recompute what the cache would have replayed.

    Where sqlite cannot open a database at ``root`` (unwritable directory,
    broken sqlite), the store is *disabled*: ``backend_name`` reads
    ``"disabled"``, :meth:`describe` names the error, every load misses and
    every save is dropped.

    **Thread model**: one connection *per thread* (``threading.local``).  A
    single shared connection can interleave two threads' statement/commit
    pairs into torn transactions or raise ``ProgrammingError``; the serving
    daemon's executor drives one store from many threads at once, so every
    thread lazily opens its own connection against the same database file
    and sqlite's file locking arbitrates between them exactly as it does
    between processes.  :meth:`close` closes every connection the store ever
    opened; a corruption rotation bumps a generation counter so other
    threads' stale connections are replaced on their next use.
    """

    FILENAME = "store.sqlite"

    def __init__(self, root: os.PathLike):
        self.root = Path(root)
        self.path = self.root / self.FILENAME
        # _lock guards the connection registry, the generation counter and
        # corrupt-file rotation; it is never held around statement execution
        self._lock = threading.RLock()
        self._local = threading.local()
        self._connections: List[sqlite3.Connection] = []
        self._generation = 0
        self._closed = False
        #: ``"sqlite"``, or ``"disabled"`` when no database could be opened
        self.backend_name = "sqlite"
        self._description = f"sqlite ({self.path})"
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            try:
                self._connection()
            except sqlite3.Error:
                if not self.path.exists():
                    raise  # no database file to blame: sqlite cannot open one here
                with self._lock:
                    self._rotate_corrupt()
                    self._generation += 1
                self._connection()  # a fresh file; raises only if the dir is unusable
        except Exception as error:  # unusable location / broken sqlite
            self.close()
            self.backend_name = "disabled"
            self._description = (
                f"disabled (no usable cache at {self.root} "
                f"({type(error).__name__}: {error}))"
            )

    # -- the daemon's two operations -----------------------------------------
    def load(
        self, net, fingerprint: str, source: str, opts_key: Tuple
    ) -> Tuple[Optional[Dict[str, object]], bool]:
        """The record filed for ``(fingerprint, source, opts_key)``, replayed
        against ``net``; returns ``(record, quarantined)``.

        ``record`` is ``None`` for a miss.  An entry failing any gate -- wire
        decode, :func:`schedule_entry_problem`, replay validation against the
        live ``net`` -- is moved to quarantine and reported as a miss, and
        ``quarantined`` tells whether this very lookup moved it (an entry
        another lookup quarantined first is just a miss).
        """
        options_fp = _options_fingerprint(opts_key)
        key = _schedule_key(fingerprint, source, options_fp)
        try:
            row = self._execute(
                "SELECT blob FROM entries WHERE kind = ? AND key = ?", (_KIND, key)
            ).fetchone()
        except Exception:
            row = None
        if row is None:
            return None, False
        payload = _decode_wire(row[0])
        if payload is None:
            reason = "wire record failed schema/checksum validation"
        else:
            reason = schedule_entry_problem(
                payload, net_fingerprint=fingerprint, source=source, options_fp=options_fp
            )
            if reason is None and not _replay_validates(net, source, payload["record"]):
                reason = "schedule failed replay validation"
        if reason is not None:
            return None, self._quarantine(_KIND, key, row[0], reason)
        return dict(payload["record"]), False

    def save(
        self, fingerprint: str, source: str, opts_key: Tuple, record: Mapping[str, object]
    ) -> None:
        """File ``record`` under ``(fingerprint, source, opts_key)``,
        replacing any older entry.

        A failed write (locked database, full disk, a closed or disabled
        store) is dropped: the record is simply not cached.
        """
        options_fp = _options_fingerprint(opts_key)
        payload = {
            "net_fingerprint": fingerprint,
            "source": source,
            "options_fp": options_fp,
            "record": dict(record),
        }
        try:
            self._execute(
                "INSERT OR REPLACE INTO entries (kind, key, blob, created) VALUES (?, ?, ?, ?)",
                (
                    _KIND,
                    _schedule_key(fingerprint, source, options_fp),
                    _encode_wire(payload),
                    time.time(),
                ),
                commit=True,
            )
        except Exception:
            pass

    # -- maintenance (python -m repro.cache) ----------------------------------
    def entries(self) -> List[Tuple[str, str, int]]:
        """``(kind, key, size in bytes)`` of every live (non-quarantined)
        entry, ordered by kind and key."""
        try:
            return self._execute(
                "SELECT kind, key, length(blob) FROM entries ORDER BY kind, key"
            ).fetchall()
        except Exception:
            return []

    def verify(self) -> Tuple[int, List[Tuple[str, str]]]:
        """Run every entry through the offline gates, quarantining failures.

        The gates are the wire decode and :func:`schedule_entry_problem`
        against the identity the key names (there is no net to replay
        against); an entry of any kind but ``schedule`` fails, since no
        lookup reads it.  Returns how many entries were checked and the
        ``(kind, key)`` of each one that failed.
        """
        try:
            rows = self._execute(
                "SELECT kind, key, blob FROM entries ORDER BY kind, key"
            ).fetchall()
        except Exception:
            return 0, []
        failed = []
        for kind, key, blob in rows:
            payload = _decode_wire(blob)
            parts = key.split(".", 3)  # v<schema>.<fingerprint>.<options_fp>.<source>
            if payload is None:
                reason = "wire record failed schema/checksum validation"
            elif kind != _KIND:
                reason = "no lookup reads this kind"
            elif len(parts) != 4 or schedule_entry_problem(
                payload, net_fingerprint=parts[1], source=parts[3], options_fp=parts[2]
            ):
                reason = "payload does not match its key"
            else:
                continue
            self._quarantine(kind, key, blob, reason)
            failed.append((kind, key))
        return len(rows), failed

    def quarantined_count(self) -> int:
        """Number of entries currently sitting in quarantine."""
        try:
            return int(self._execute("SELECT COUNT(*) FROM quarantine").fetchone()[0])
        except Exception:
            return 0

    def clear(self) -> None:
        """Remove every entry, including the quarantine area."""
        try:
            self._execute("DELETE FROM entries")
            self._execute("DELETE FROM quarantine", commit=True)
        except Exception:
            pass

    def close(self) -> None:
        """Close every connection; later operations miss or drop."""
        with self._lock:
            self._closed = True
            connections, self._connections = self._connections, []
        self._local.entry = None
        for conn in connections:
            try:
                conn.close()
            except sqlite3.Error:
                pass

    def describe(self) -> str:
        """One-line human description: backend and location, or why the
        store is disabled."""
        return self._description

    # -- internals -----------------------------------------------------------
    def _quarantine(self, kind: str, key: str, blob: str, reason: str) -> bool:
        """Move the entry ``(kind, key)`` holding ``blob`` out of the lookup
        path, keeping it for autopsy; True when this call moved it.

        The copy and the delete are one transaction, and both match the blob
        that was judged, so two lookups that find one bad entry move it once
        and a fresh entry saved in between stays.
        """
        match = (kind, key, blob)
        delete = "DELETE FROM entries WHERE kind = ? AND key = ? AND blob = ?"
        try:
            self._execute(
                "INSERT INTO quarantine (kind, key, blob, reason, ts)"
                " SELECT kind, key, blob, ?, ? FROM entries"
                " WHERE kind = ? AND key = ? AND blob = ?",
                (reason, time.time()) + match,
            )
            return self._execute(delete, match, commit=True).rowcount > 0
        except Exception:
            try:  # last resort: make sure the bad entry stops matching lookups
                self._execute(delete, match, commit=True)
            except Exception:
                pass
            return False

    def _open(self) -> sqlite3.Connection:
        # check_same_thread=False solely so close() may reap connections
        # owned by finished executor threads; statements always run on the
        # opening thread (sqlite3.threadsafety serializes the rest)
        conn = sqlite3.connect(str(self.path), timeout=5.0, check_same_thread=False)
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA busy_timeout=5000")
        conn.execute(
            "CREATE TABLE IF NOT EXISTS entries ("
            " kind TEXT NOT NULL, key TEXT NOT NULL, blob TEXT NOT NULL,"
            " created REAL NOT NULL, PRIMARY KEY (kind, key))"
        )
        conn.execute(
            "CREATE TABLE IF NOT EXISTS quarantine ("
            " kind TEXT NOT NULL, key TEXT NOT NULL, blob TEXT,"
            " reason TEXT NOT NULL, ts REAL NOT NULL)"
        )
        conn.commit()
        return conn

    def _forget_local(self) -> None:
        """Close and deregister the calling thread's connection, if any."""
        cached = getattr(self._local, "entry", None)
        if cached is None:
            return
        _generation, conn = cached
        self._local.entry = None
        try:
            conn.close()
        except sqlite3.Error:
            pass
        with self._lock:
            if conn in self._connections:
                self._connections.remove(conn)

    def _connection(self) -> sqlite3.Connection:
        """The calling thread's connection, opened (or refreshed) on demand."""
        if self._closed:
            raise sqlite3.OperationalError("store connection is closed")
        cached = getattr(self._local, "entry", None)
        if cached is not None:
            generation, conn = cached
            if generation == self._generation:
                return conn
            self._forget_local()  # the database was rotated under this thread
        with self._lock:
            generation = self._generation
        conn = self._open()
        with self._lock:
            if self._closed:
                try:
                    conn.close()
                except sqlite3.Error:
                    pass
                raise sqlite3.OperationalError("store connection is closed")
            self._connections.append(conn)
        self._local.entry = (generation, conn)
        return conn

    def _rotate_corrupt(self) -> None:
        """Move an unusable database file aside so a fresh one can start."""
        for attempt in range(100):
            target = self.path.with_name(f"{self.FILENAME}.corrupt-{attempt}")
            if not target.exists():
                self.path.replace(target)
                return
        self.path.unlink()

    def _recover_corrupt(self) -> None:
        """Rotate a database that went bad underneath us, exactly once.

        Several threads can observe the same malformed file concurrently;
        only the first (by generation) performs the rotation, the rest just
        drop their stale connections and reconnect to the fresh database.
        """
        cached = getattr(self._local, "entry", None)
        stale_generation = cached[0] if cached is not None else None
        self._forget_local()
        with self._lock:
            if stale_generation is None or stale_generation == self._generation:
                if self.path.exists():
                    self._rotate_corrupt()
                self._generation += 1

    def _execute(self, sql: str, params: Tuple = (), *, commit: bool = False) -> sqlite3.Cursor:
        try:
            conn = self._connection()
            cursor = conn.execute(sql, params)
            if commit:
                conn.commit()
            return cursor
        except sqlite3.DatabaseError as error:
            message = str(error).lower()
            if "malformed" in message or "not a database" in message:
                self._recover_corrupt()
                conn = self._connection()
                cursor = conn.execute(sql, params)
                if commit:
                    conn.commit()
                return cursor
            raise
