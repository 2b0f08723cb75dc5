"""The daemon's record cache: round-trips, failure modes, acceptance.

Three layers of coverage:

* the store itself (sqlite, and the disabled state it degrades to):
  wire-format integrity, quarantine, concurrent writers, unusable locations;
* the record cache as the daemon drives it (``SchedulingService._compute``:
  lookup, live search on a miss, write-through): two levels, replay
  validation, fingerprint-collision rejection, the CLI;
* the headline acceptance: a **second process** running a service over the
  same store replays byte-identical schedules from disk with zero live
  searches.

Bad entries are planted with raw SQL in the v1 on-disk format (``_key``,
``_wire``), written out here independently of the store, so the tests also
pin the bytes on disk.  Every failure mode must degrade to a cache miss --
never an exception, never a wrong schedule.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import sqlite3
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.apps.divisors import build_divisors_system
from repro.apps.paper_nets import figure_4b, figure_5, figure_6
from repro.cache import SCHEMA_VERSION, SqliteStore, activate, options_cache_key
from repro.cache.cli import main as cache_cli
from repro.petrinet.fingerprint import structural_fingerprint
from repro.petrinet.invariants import t_invariant_basis
from repro.scheduling.ep import SchedulerOptions, find_all_schedules, find_schedule
from repro.scheduling.serialize import result_to_record, schedule_to_dict
from repro.serve import SchedulingService
from service_path import schedule_through

REPO_ROOT = Path(__file__).resolve().parent.parent

#: the options key of the default options, which every test files under
OPTS = options_cache_key(SchedulerOptions())


@pytest.fixture(params=["sqlite"])
def store(request, tmp_path):
    s = activate(tmp_path / "cache")
    assert s.backend_name == request.param
    yield s
    s.close()


# ---------------------------------------------------------------------------
# the v1 on-disk format, written by hand
# ---------------------------------------------------------------------------


def _options_fp(opts_key=OPTS) -> str:
    return hashlib.sha256(repr(opts_key).encode("utf-8")).hexdigest()


def _key(fingerprint: str, source: str, opts_key=OPTS) -> str:
    """An entry's key: ``v1.<fingerprint>.<sha256 of the options key>.<source>``."""
    return f"v1.{fingerprint}.{_options_fp(opts_key)}.{source}"


def _payload(fingerprint: str, source: str, record, opts_key=OPTS):
    """What a schedule entry holds: the identity it is filed under and the record."""
    return {
        "net_fingerprint": fingerprint,
        "source": source,
        "options_fp": _options_fp(opts_key),
        "record": record,
    }


def _wire(payload, *, schema: int = 1, created: float = 0.0) -> str:
    """A wire record: the payload, its schema version and the SHA-256 of its
    canonical JSON, as compact key-sorted JSON."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return json.dumps(
        {
            "checksum": hashlib.sha256(body.encode("utf-8")).hexdigest(),
            "created": created,
            "payload": payload,
            "schema": schema,
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def _plant(path: Path, key: str, blob: str, kind: str = "schedule") -> None:
    """File ``blob`` under ``(kind, key)`` behind the store's back."""
    conn = sqlite3.connect(path)
    conn.execute(
        "INSERT OR REPLACE INTO entries (kind, key, blob, created) VALUES (?, ?, ?, 0)",
        (kind, key, blob),
    )
    conn.commit()
    conn.close()


def _record_for(net, source="src.divisors.in"):
    return result_to_record(find_schedule(net, source, raise_on_failure=True))


def _figure_5():
    """Figure 5, its fingerprint and the record of its source ``a``."""
    net = figure_5()
    return net, structural_fingerprint(net), _record_for(net, "a")


# ---------------------------------------------------------------------------
# the store
# ---------------------------------------------------------------------------


def test_store_roundtrip_and_clear(store):
    net, fp, record = _figure_5()
    assert store.load(net, fp, "a", OPTS) == (None, False)
    store.save(fp, "a", OPTS, record)
    _plant(store.path, "k2", _wire({"basis": []}), kind="t_invariant_basis")
    assert store.load(net, fp, "a", OPTS) == (record, False)
    kinds = [kind for kind, _key, _size in store.entries()]
    assert kinds == ["schedule", "t_invariant_basis"]
    store.clear()
    assert store.entries() == []
    assert store.load(net, fp, "a", OPTS) == (None, False)


def test_the_on_disk_format_is_unchanged(tmp_path):
    """An entry filed by hand in the v1 tables, key and wire record replays,
    and ``save`` writes exactly that format (bar the ``created`` stamp)."""
    assert SCHEMA_VERSION == 1
    store = activate(tmp_path / "cache")
    net, fp, record = _figure_5()
    _plant(store.path, _key(fp, "a"), _wire(_payload(fp, "a", record), created=1.5))
    assert store.load(net, fp, "a", OPTS) == (record, False)

    store.save(fp, "b", OPTS, record)
    conn = sqlite3.connect(store.path)
    tables = dict(conn.execute("SELECT name, sql FROM sqlite_master WHERE type = 'table'"))
    (kind, blob), = conn.execute(
        "SELECT kind, blob FROM entries WHERE key = ?", (_key(fp, "b"),)
    ).fetchall()
    conn.close()
    assert tables == {
        "entries": "CREATE TABLE entries ( kind TEXT NOT NULL, key TEXT NOT NULL,"
        " blob TEXT NOT NULL, created REAL NOT NULL, PRIMARY KEY (kind, key))",
        "quarantine": "CREATE TABLE quarantine ( kind TEXT NOT NULL, key TEXT NOT NULL,"
        " blob TEXT, reason TEXT NOT NULL, ts REAL NOT NULL)",
    }
    assert kind == "schedule"
    assert blob == _wire(_payload(fp, "b", record), created=json.loads(blob)["created"])
    store.close()


def test_wire_codec_rejects_tampering(tmp_path):
    """Only a pristine wire record is read: one that is not JSON, names
    another schema version or no longer hashes to its checksum is
    quarantined and missed."""
    store = activate(tmp_path / "cache")
    net, fp, record = _figure_5()
    pristine = _wire(_payload(fp, "a", record))
    foreign = json.loads(pristine)
    foreign["schema"] = 999
    tampered = json.loads(pristine)
    tampered["payload"]["record"]["tree_nodes"] += 1  # no longer matches the checksum
    for blob in ("not json {", json.dumps(foreign), json.dumps(tampered)):
        _plant(store.path, _key(fp, "a"), blob)
        assert store.load(net, fp, "a", OPTS) == (None, True)
    _plant(store.path, _key(fp, "a"), pristine)
    assert store.load(net, fp, "a", OPTS) == (record, False)
    assert store.quarantined_count() == 3
    store.close()


def test_corrupt_entry_is_quarantined_not_raised(store):
    net, fp, record = _figure_5()
    store.save(fp, "a", OPTS, record)
    # corrupt the stored blob behind the store's back
    conn = sqlite3.connect(store.path)
    conn.execute("UPDATE entries SET blob = ? WHERE key = ?", ("garbage{", _key(fp, "a")))
    conn.commit()
    conn.close()
    assert store.load(net, fp, "a", OPTS) == (None, True)  # miss, no exception
    assert store.quarantined_count() == 1
    # stays gone from the lookup path, and is not quarantined twice
    assert store.load(net, fp, "a", OPTS) == (None, False)
    assert store.quarantined_count() == 1


def test_corrupt_sqlite_database_file_degrades_to_miss(tmp_path):
    root = tmp_path / "cache"
    root.mkdir()
    (root / SqliteStore.FILENAME).write_bytes(b"this is not a sqlite database at all")
    store = activate(root)
    assert store.backend_name == "sqlite"  # rotated the bad file, started fresh
    net, fp, record = _figure_5()
    assert store.load(net, fp, "a", OPTS) == (None, False)
    store.save(fp, "a", OPTS, record)
    assert store.load(net, fp, "a", OPTS) == (record, False)
    assert (root / f"{SqliteStore.FILENAME}.corrupt-0").exists()


def _assert_disabled(store, root) -> None:
    """A disabled store says why, and every operation misses or drops."""
    assert store.backend_name == "disabled"
    assert store.describe().startswith(f"disabled (no usable cache at {root} (")
    net, fp, record = _figure_5()
    store.save(fp, "a", OPTS, record)  # dropped
    assert store.load(net, fp, "a", OPTS) == (None, False)
    assert store.entries() == []
    assert store.verify() == (0, [])
    assert store.quarantined_count() == 0
    store.clear()
    store.close()


def test_unwritable_location_yields_null_store(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    _assert_disabled(activate(blocker / "sub"), blocker / "sub")  # cannot mkdir below a file


@pytest.mark.skipif(os.geteuid() == 0, reason="root ignores directory permissions")
def test_readonly_directory_yields_null_store(tmp_path):
    root = tmp_path / "ro"
    root.mkdir()
    root.chmod(0o555)
    try:
        _assert_disabled(activate(root / "cache"), root / "cache")
    finally:
        root.chmod(0o755)


def test_sqlite_that_cannot_open_yields_null_store_and_search_runs(tmp_path, monkeypatch):
    """A writable directory where sqlite itself cannot open a database: the
    store is disabled, naming the sqlite error, and a service over it still
    searches."""
    reference = find_all_schedules(figure_5())

    def refuse(*args, **kwargs):
        raise sqlite3.OperationalError("disk I/O error")

    monkeypatch.setattr(sqlite3, "connect", refuse)
    root = tmp_path / "cache"
    store = activate(path=root)
    assert root.is_dir()
    assert store.backend_name == "disabled"
    assert "OperationalError: disk I/O error" in store.describe()
    service = SchedulingService(store=store)
    for source in reference:
        record, origin = schedule_through(service, figure_5(), source)
        assert origin == "search"
        assert record["schedule"] == schedule_to_dict(reference[source].schedule)
    assert service.snapshot()["live_searches"] == len(reference)


def test_concurrent_writers_never_raise(store):
    record = _record_for(figure_5(), "a")
    errors, misses = [], []

    def writer(worker: int) -> None:
        net = figure_5()  # a net object's lazy caches are built by one thread
        try:
            for i in range(25):
                store.save(f"w{worker}-{i}", "a", OPTS, record)
                if store.load(net, f"w{worker}-{i}", "a", OPTS) != (record, False):
                    misses.append((worker, i))
        except Exception as error:  # the contract: stores never raise
            errors.append(error)

    threads = [threading.Thread(target=writer, args=(w,)) for w in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert not misses
    assert len(store.entries()) == 100


def test_concurrent_processes_share_one_sqlite_store(tmp_path):
    """Two processes hammering the same sqlite file: no exceptions, last wins."""
    root = tmp_path / "cache"
    script = (
        "import sys; sys.path.insert(0, {src!r})\n"
        "from repro.apps.paper_nets import figure_5\n"
        "from repro.cache import activate\n"
        "store = activate({root!r})\n"
        "record = {{'schedule': None, 'tree_nodes': 0, 'elapsed_seconds': 0.0,\n"
        "          'failure_reason': sys.argv[1], 'counters': {{}}}}\n"
        "for i in range(50):\n"
        "    store.save(f'fp{{i}}', 'a', {opts!r}, record)\n"
        "assert store.load(figure_5(), 'fp0', 'a', {opts!r})[0] is not None\n"
    ).format(src=str(REPO_ROOT / "src"), root=str(root), opts=OPTS)
    procs = [
        subprocess.Popen([sys.executable, "-c", script, name])
        for name in ("alpha", "beta")
    ]
    for proc in procs:
        assert proc.wait(timeout=60) == 0
    store = activate(root)
    assert len(store.entries()) == 50
    record, quarantined = store.load(figure_5(), "fp49", "a", OPTS)
    assert record["failure_reason"] in {"alpha", "beta"} and not quarantined


@pytest.mark.parametrize("meanwhile", ["another_lookup", "a_fresh_save"])
def test_a_lookup_quarantines_only_the_entry_it_judged(tmp_path, meanwhile):
    """Lookup A judges a bad entry and is held before quarantining it.
    Meanwhile another lookup quarantines that entry, or a save replaces it
    with a good record.  A then moves nothing and says so: one quarantine
    row, and a fresh entry is never quarantined for its predecessor."""
    store = activate(tmp_path / "cache")
    net, fp, record = _figure_5()
    _plant(store.path, _key(fp, "a"), "garbage{")
    a_judged, released = threading.Event(), threading.Event()
    execute = store._execute

    def held_execute(sql, params=(), **kwargs):
        if sql.startswith("INSERT INTO quarantine") and threading.current_thread().name == "A":
            a_judged.set()
            released.wait(60)
        return execute(sql, params, **kwargs)

    store._execute = held_execute
    results = {}
    lookup_a = threading.Thread(
        target=lambda: results.update(A=store.load(figure_5(), fp, "a", OPTS)), name="A"
    )
    lookup_a.start()
    try:
        assert a_judged.wait(60)
        if meanwhile == "another_lookup":
            assert store.load(net, fp, "a", OPTS) == (None, True)
        else:
            store.save(fp, "a", OPTS, record)
    finally:
        released.set()
        lookup_a.join()
    assert results["A"] == (None, False)
    assert store.quarantined_count() == (1 if meanwhile == "another_lookup" else 0)
    expected = None if meanwhile == "another_lookup" else record
    assert store.load(net, fp, "a", OPTS) == (expected, False)
    store.close()


# ---------------------------------------------------------------------------
# schedule records: validation gauntlet
# ---------------------------------------------------------------------------


def test_schedule_record_roundtrip(store):
    net = build_divisors_system().net
    record = _record_for(net)
    fp = structural_fingerprint(net)
    store.save(fp, "src.divisors.in", OPTS, record)
    loaded, quarantined = store.load(net, fp, "src.divisors.in", OPTS)
    assert not quarantined
    assert loaded["schedule"] == record["schedule"]
    assert loaded["counters"] == record["counters"]


def test_stale_fingerprint_collision_is_rejected(store):
    """An entry whose key matches but whose payload belongs to a different
    net must not be trusted: identity check first, replay validation second."""
    divisors = build_divisors_system().net
    other = figure_6()
    record = _record_for(divisors)
    fp_other = structural_fingerprint(other)
    # case 1: payload declares a different fingerprint than the key position
    _plant(
        store.path,
        _key(fp_other, "src.divisors.in"),
        _wire(_payload("somebody-else", "src.divisors.in", record)),
    )
    assert store.load(other, fp_other, "src.divisors.in", OPTS) == (None, True)
    # case 2: identity lines up but the schedule cannot replay on this net
    # (a divisors schedule: places unknown to figure_6)
    store.save(fp_other, "src.divisors.in", OPTS, record)
    assert store.load(other, fp_other, "src.divisors.in", OPTS) == (None, True)
    assert store.quarantined_count() == 2


@pytest.mark.parametrize("node", [0, 1])
def test_a_record_naming_a_place_the_net_lacks_is_quarantined(store, node):
    """Replay validation refuses a record whose schedule names a place the
    live net lacks, though its identity, shape and every other marking line
    up: Figure 5's record with ``["zz_ghost", 1]`` added to the root or to
    node 1."""
    net, fp, record = _figure_5()
    store.save(fp, "a", OPTS, record)
    assert store.load(net, fp, "a", OPTS) == (record, False)
    record["schedule"]["nodes"][node]["marking"].append(["zz_ghost", 1])
    store.save(fp, "a", OPTS, record)
    assert store.load(net, fp, "a", OPTS) == (None, True)
    assert store.quarantined_count() == 1


def test_malformed_record_shapes_are_rejected(store):
    net = build_divisors_system().net
    fp = structural_fingerprint(net)
    good = _record_for(net)
    for bad in (
        {"schedule": None},  # missing required fields
        {**good, "counters": {"nodes_expanded": 1, "not_a_counter": 2}},
        {**good, "counters": "nope"},
    ):
        store.save(fp, "src.divisors.in", OPTS, bad)
        assert store.load(net, fp, "src.divisors.in", OPTS) == (None, True)
    assert store.quarantined_count() == 3


def test_schema_version_mismatch_is_a_miss(store):
    net = build_divisors_system().net
    fp = structural_fingerprint(net)
    payload = _payload(fp, "src.divisors.in", _record_for(net))
    _plant(
        store.path,
        _key(fp, "src.divisors.in"),
        _wire(payload, schema=SCHEMA_VERSION + 1),
    )
    assert store.load(net, fp, "src.divisors.in", OPTS) == (None, True)


# ---------------------------------------------------------------------------
# the record cache, driven as the daemon drives it
# ---------------------------------------------------------------------------


def test_two_level_cache_replays_across_instances(store):
    """A fresh service (fresh L1) replays from the shared disk level,
    simulating a second process without forking one."""
    net = build_divisors_system().net
    first_service = SchedulingService(store=store)
    first, origin = schedule_through(first_service, net, "src.divisors.in")
    assert origin == "search" and first_service.snapshot()["live_searches"] == 1

    second_service = SchedulingService(store=store)
    replay, origin = schedule_through(
        second_service, build_divisors_system().net, "src.divisors.in"
    )
    assert origin == "disk"
    stats = second_service.snapshot()
    assert stats["disk_hits"] == 1
    assert stats["live_searches"] == 0  # zero EP search work
    # the whole record: schedule, counters and the original search's clock
    assert replay == first


def test_failure_outcomes_replay_from_disk(store):
    first, origin = schedule_through(SchedulingService(store=store), figure_4b(), "a")
    assert first["schedule"] is None and origin == "search"
    second, origin = schedule_through(SchedulingService(store=store), figure_4b(), "a")
    assert origin == "disk"
    assert second == first  # failure reason included


def test_options_key_differences_miss(store):
    schedule_through(
        SchedulingService(store=store), figure_5(), "a", SchedulerOptions(max_nodes=1_000)
    )
    other = SchedulingService(store=store)
    _record, origin = schedule_through(
        other, figure_5(), "a", SchedulerOptions(max_nodes=2_000)
    )
    assert origin == "search"  # max_nodes is part of the key
    assert other.snapshot()["live_searches"] == 1


def test_record_with_retired_counter_keys_is_never_replayed(store):
    """Records written while SearchCounters still carried the per-backend
    expansion tallies must not replay, even under the current key."""
    net = build_divisors_system().net
    record = _record_for(net)
    record["counters"] = dict(
        record["counters"], batched_expansions=0, kernel_expansions=0
    )
    fp = structural_fingerprint(net)
    store.save(fp, "src.divisors.in", OPTS, record)
    assert store.load(net, fp, "src.divisors.in", OPTS) == (None, True)
    searched, origin = schedule_through(SchedulingService(store=store), net, "src.divisors.in")
    assert searched["schedule"] is not None and origin == "search"
    assert set(searched["counters"]) == set(_record_for(net)["counters"])


def test_env_dir_override_and_null_degradation(tmp_path, monkeypatch):
    # REPRO_CACHE_DIR moves activate()'s default location
    target = tmp_path / "elsewhere"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(target))
    store = activate()
    assert str(target) in store.describe()
    schedule_through(SchedulingService(store=store), figure_5(), "a")
    assert any(kind == "schedule" for kind, _key, _size in store.entries())
    store.close()

    # REPRO_CACHE_DIR pointing somewhere unusable degrades to misses
    blocker = tmp_path / "blocker"
    blocker.write_text("file")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(blocker / "nested"))
    null = activate()
    assert null.backend_name == "disabled"
    record, origin = schedule_through(SchedulingService(store=null), figure_5(), "a")
    assert record["schedule"] is not None and origin == "search"  # still schedules fine


def test_disk_rejected_counts_only_this_caches_rejections(store):
    net = build_divisors_system().net
    fp = structural_fingerprint(net)
    # unrelated quarantine history must not leak into the service's counters
    _plant(store.path, "junk", _wire({"x": 1}), kind="t_invariant_basis")
    assert store.verify() == (1, [("t_invariant_basis", "junk")])
    # a corrupt entry under the exact key the lookup will use
    _plant(
        store.path,
        _key(fp, "src.divisors.in"),
        _wire(_payload("wrong", "src.divisors.in", {})),
    )
    service = SchedulingService(store=store)
    record, origin = schedule_through(service, net, "src.divisors.in")
    assert record["schedule"] is not None and origin == "search"
    assert service.snapshot()["disk_rejected"] == 1  # exactly the corrupt schedule entry
    assert store.quarantined_count() == 2
    # a plain miss afterwards does not bump the counter
    schedule_through(service, figure_5(), "a")
    assert service.snapshot()["disk_rejected"] == 1


def test_overlapping_lookups_count_only_their_own_quarantines(tmp_path):
    """Two executor threads: lookup A, a plain miss, is held inside its read
    until lookup B has quarantined a bad-checksum entry and finished.  The
    store quarantined one entry, so the daemon counts one rejection; A's
    miss does not claim B's quarantine."""
    store = activate(tmp_path / "cache")
    net_a, net_b = figure_5(), build_divisors_system().net
    fp_a, fp_b = structural_fingerprint(net_a), structural_fingerprint(net_b)
    bad = json.loads(_wire(_payload(fp_b, "src.divisors.in", _record_for(net_b))))
    bad["checksum"] = "0" * 64
    _plant(store.path, _key(fp_b, "src.divisors.in"), json.dumps(bad))
    a_reading, b_done = threading.Event(), threading.Event()
    execute = store._execute

    def held_execute(sql, params=(), **kwargs):
        if _key(fp_a, "a") in params and not b_done.is_set():
            a_reading.set()
            b_done.wait(60)
        return execute(sql, params, **kwargs)

    store._execute = held_execute
    service = SchedulingService(max_workers=2, store=store)

    async def overlap():
        lookup_a = asyncio.ensure_future(
            service.schedule_net(net_a, ["a"], None, fingerprint=fp_a)
        )
        assert await asyncio.to_thread(a_reading.wait, 60)
        await service.schedule_net(net_b, ["src.divisors.in"], None, fingerprint=fp_b)
        b_done.set()
        await lookup_a

    try:
        asyncio.run(overlap())
    finally:
        b_done.set()
        service.close()
    stats = service.snapshot()
    assert stats["live_searches"] == 2
    assert store.quarantined_count() == 1
    assert stats["disk_rejected"] == 1
    store.close()


# ---------------------------------------------------------------------------
# the CLI
# ---------------------------------------------------------------------------


def test_cli_stats_clear_verify(tmp_path, capsys):
    root = tmp_path / "cache"
    store = activate(root)
    # a real, correctly keyed schedule entry...
    net = build_divisors_system().net
    fp = structural_fingerprint(net)
    store.save(fp, "src.divisors.in", OPTS, _record_for(net))
    # ...plus one whose wire record is corrupt
    _plant(store.path, _key(fp, "t.other"), "junk")
    store.close()

    assert cache_cli(["stats", "--dir", str(root), "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["entries"] == 2 and stats["by_kind"]["schedule"]["entries"] == 2

    assert cache_cli(["verify", "--dir", str(root), "--json"]) == 1  # one bad entry
    report = json.loads(capsys.readouterr().out)
    assert report["checked"] == 2 and report["ok"] == 1
    assert [q["kind"] for q in report["quarantined"]] == ["schedule"]
    assert cache_cli(["verify", "--dir", str(root)]) == 0  # now clean
    capsys.readouterr()


def test_cli_verify_flags_identity_mismatch(tmp_path, capsys):
    """verify cross-checks payload identity against the key offline: an
    entry filed under somebody else's key is quarantined without a net."""
    root = tmp_path / "cache"
    store = activate(root)
    net = build_divisors_system().net
    fp = structural_fingerprint(net)
    # valid wire record, wrong identity: filed under a different fingerprint
    _plant(
        store.path,
        _key("0" * 64, "src.divisors.in"),
        _wire(_payload(fp, "src.divisors.in", _record_for(net))),
    )
    store.close()
    assert cache_cli(["verify", "--dir", str(root), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] == 0 and len(report["quarantined"]) == 1
    assert cache_cli(["stats", "--dir", str(root), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["quarantined"] == 1


def test_cli_verify_quarantines_kinds_no_lookup_reads(tmp_path, capsys):
    """Lookups read schedule entries only: a T-invariant basis entry as
    older versions wrote it, and an entry of a kind nothing knows, fail
    verify and are quarantined."""
    root = tmp_path / "cache"
    store = activate(root)
    incidence_fp = "0" * 64
    _plant(
        store.path,
        f"v1.{incidence_fp}.rows4096",
        _wire({"incidence_fingerprint": incidence_fp, "max_rows": 4096,
               "basis": t_invariant_basis(figure_5())}),
        kind="t_invariant_basis",
    )
    _plant(store.path, "k", _wire({"x": 1}), kind="mystery")
    store.close()
    assert cache_cli(["verify", "--dir", str(root), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["checked"] == 2 and report["ok"] == 0
    assert sorted(q["kind"] for q in report["quarantined"]) == [
        "mystery",
        "t_invariant_basis",
    ]
    assert cache_cli(["stats", "--dir", str(root), "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["entries"] == 0 and stats["quarantined"] == 2


def test_cli_on_an_unusable_location_reads_disabled(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    root = str(blocker / "sub")
    assert cache_cli(["stats", "--dir", root, "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["backend"] == "disabled"
    assert stats["location"].startswith(f"disabled (no usable cache at {root} (")
    assert stats["entries"] == 0 and stats["quarantined"] == 0
    assert cache_cli(["verify", "--dir", root, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["checked"] == 0 and report["quarantined"] == []


def test_cli_stats_after_clear(tmp_path, capsys):
    root = tmp_path / "cache"
    store = activate(root)
    net, fp, record = _figure_5()
    store.save(fp, "a", OPTS, record)
    store.close()
    cache_cli(["clear", "--dir", str(root)])
    capsys.readouterr()
    cache_cli(["stats", "--dir", str(root), "--json"])
    assert json.loads(capsys.readouterr().out)["entries"] == 0


# ---------------------------------------------------------------------------
# the acceptance criterion: a second process does zero search work
# ---------------------------------------------------------------------------

_ACCEPTANCE_SCRIPT = """
import asyncio, json, sys
sys.path.insert(0, sys.argv[1])
from repro.apps.divisors import build_divisors_system
from repro.apps.workloads import random_multi_source_net
from repro.cache import activate
from repro.serve import SchedulingService
from repro.serve.protocol import canonical_json


async def schedule_both(service):
    payloads = []
    for net in (build_divisors_system().net, random_multi_source_net(3, 4, seed=11)):
        payloads += (await service.schedule_net(net, net.uncontrollable_sources(), None))[0]
    return payloads


store = activate(path=sys.argv[2])
service = SchedulingService(store=store)
payloads = asyncio.run(schedule_both(service))
service.close()
store.close()
print(json.dumps({
    "schedules": {p["source"]: canonical_json(p["schedule"]) for p in payloads},
    "from_cache": {p["source"]: p["from_cache"] for p in payloads},
    "live_searches": service.snapshot()["live_searches"],
}))
"""


def _run_acceptance_process(cache_dir: Path) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, "-c", _ACCEPTANCE_SCRIPT, str(REPO_ROOT / "src"), str(cache_dir)],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
        cwd=str(REPO_ROOT),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_second_process_replays_byte_identical_with_zero_expansions(tmp_path):
    """Two processes each run a service over one disk store: the second
    replays every source byte for byte from disk, with no live search."""
    cache_dir = tmp_path / "cache"
    cold = _run_acceptance_process(cache_dir)
    assert len(cold["from_cache"]) == 4  # the divisors input and three r*.src
    assert not any(cold["from_cache"].values())
    assert cold["live_searches"] == 4

    warm = _run_acceptance_process(cache_dir)
    assert all(warm["from_cache"].values())
    assert warm["live_searches"] == 0
    assert warm["schedules"] == cold["schedules"]  # byte-identical replay
