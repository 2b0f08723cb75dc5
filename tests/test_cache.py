"""The persistent artifact cache: round-trips, failure modes, acceptance.

Three layers of coverage:

* the stores themselves (sqlite, and the NullStore it degrades to):
  wire-format integrity, quarantine, concurrent writers, unusable locations;
* the scheduling integration: two-level warm start, replay validation,
  fingerprint-collision rejection, parallel read-through, the T-invariant
  basis disk store, the CLI;
* the headline acceptance: a **second process** running the same workload
  replays byte-identical schedules from disk with zero EP-search node
  expansions (``LIVE_SEARCH_COUNTERS``).

Every failure mode must degrade to a cache miss -- never an exception,
never a wrong schedule.
"""

from __future__ import annotations

import json
import os
import sqlite3
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro.cache as artifact_cache
from repro.apps.divisors import build_divisors_system
from repro.apps.paper_nets import figure_4b, figure_5, figure_6
from repro.apps.workloads import random_multi_source_net
from repro.cache import (
    NullStore,
    SqliteStore,
    load_invariant_basis,
    load_schedule_record,
    open_store,
    options_fingerprint,
    schedule_cache_key,
    store_schedule_record,
)
from repro.cache.cli import main as cache_cli
from repro.cache.stores import SCHEMA_VERSION, decode_wire, encode_wire
from repro.petrinet.fingerprint import incidence_fingerprint, structural_fingerprint
from repro.petrinet.invariants import t_invariant_basis
from repro.scheduling.ep import SchedulerOptions, find_all_schedules, find_schedule
from repro.scheduling.serialize import result_to_record, schedule_to_json
from repro.scheduling.termination import NodeBudget
from repro.scheduling.warmstart import (
    LIVE_SEARCH_COUNTERS,
    GLOBAL_SCHEDULE_CACHE,
    ScheduleWarmStartCache,
    options_cache_key,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _isolated_cache_state():
    """No test leaks an active store or warm-start state into the next."""
    from repro.petrinet import invariants as invariants_module

    artifact_cache.reset_active_store()
    GLOBAL_SCHEDULE_CACHE.clear()
    invariants_module._BASIS_WARM_STORE.clear()
    yield
    artifact_cache.reset_active_store()
    GLOBAL_SCHEDULE_CACHE.clear()
    invariants_module._BASIS_WARM_STORE.clear()


@pytest.fixture(params=["sqlite"])
def store(request, tmp_path):
    s = open_store(tmp_path / "cache")
    assert s.backend_name == request.param
    yield s
    s.close()


def _live_nodes() -> int:
    return LIVE_SEARCH_COUNTERS.nodes_expanded


# ---------------------------------------------------------------------------
# store backends
# ---------------------------------------------------------------------------


def test_store_roundtrip_and_clear(store):
    assert store.get("schedule", "missing") is None
    store.put("schedule", "k1", {"value": [1, 2, {"deep": "x"}]})
    store.put("t_invariant_basis", "k2", {"basis": []})
    assert store.get("schedule", "k1") == {"value": [1, 2, {"deep": "x"}]}
    kinds = sorted(e.kind for e in store.entries())
    assert kinds == ["schedule", "t_invariant_basis"]
    store.delete("schedule", "k1")
    assert store.get("schedule", "k1") is None
    store.clear()
    assert store.entries() == []
    assert store.stats.puts == 2


def test_wire_codec_rejects_tampering():
    blob = encode_wire({"a": 1})
    assert decode_wire(blob) == {"a": 1}
    assert decode_wire("not json {") is None
    assert decode_wire(json.dumps({"schema": 999, "payload": {}, "checksum": ""})) is None
    wire = json.loads(blob)
    wire["payload"]["a"] = 2  # payload no longer matches the checksum
    assert decode_wire(json.dumps(wire)) is None


def test_corrupt_entry_is_quarantined_not_raised(store):
    store.put("schedule", "k", {"fine": True})
    # corrupt the stored blob behind the store's back
    conn = sqlite3.connect(store.path)
    conn.execute("UPDATE entries SET blob = ? WHERE key = ?", ("garbage{", "k"))
    conn.commit()
    conn.close()
    assert store.get("schedule", "k") is None  # miss, no exception
    assert store.stats.quarantined == 1
    assert store.quarantined_count() == 1
    assert store.get("schedule", "k") is None  # stays gone from the lookup path


def test_corrupt_sqlite_database_file_degrades_to_miss(tmp_path):
    root = tmp_path / "cache"
    root.mkdir()
    (root / SqliteStore.FILENAME).write_bytes(b"this is not a sqlite database at all")
    store = open_store(root)
    assert store.backend_name == "sqlite"  # rotated the bad file, started fresh
    assert store.get("schedule", "k") is None
    store.put("schedule", "k", {"ok": 1})
    assert store.get("schedule", "k") == {"ok": 1}
    assert (root / f"{SqliteStore.FILENAME}.corrupt-0").exists()


def test_unwritable_location_yields_null_store(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    store = open_store(blocker / "sub")  # cannot mkdir below a file
    assert isinstance(store, NullStore)
    store.put("schedule", "k", {"x": 1})  # swallowed
    assert store.get("schedule", "k") is None
    assert store.entries() == []


@pytest.mark.skipif(os.geteuid() == 0, reason="root ignores directory permissions")
def test_readonly_directory_yields_null_store(tmp_path):
    root = tmp_path / "ro"
    root.mkdir()
    root.chmod(0o555)
    try:
        store = open_store(root / "cache")
        assert isinstance(store, NullStore)
        assert store.get("schedule", "k") is None
    finally:
        root.chmod(0o755)


def test_sqlite_that_cannot_open_yields_null_store_and_search_runs(tmp_path, monkeypatch):
    """A writable directory where sqlite itself cannot open a database: the
    cache is a NullStore naming the sqlite error, and scheduling goes on."""
    reference = find_all_schedules(figure_5())

    def refuse(*args, **kwargs):
        raise sqlite3.OperationalError("disk I/O error")

    monkeypatch.setattr(sqlite3, "connect", refuse)
    root = tmp_path / "cache"
    store = artifact_cache.activate(path=root)
    assert root.is_dir()
    assert isinstance(store, NullStore)
    assert "OperationalError: disk I/O error" in store.describe()
    GLOBAL_SCHEDULE_CACHE.clear()
    results = find_all_schedules(figure_5())
    assert list(results) == list(reference)
    for source, result in results.items():
        assert result.success and not result.from_cache
        assert schedule_to_json(result.schedule) == schedule_to_json(
            reference[source].schedule
        )


def test_concurrent_writers_never_raise(store):
    errors = []

    def writer(worker: int) -> None:
        try:
            for i in range(25):
                store.put("schedule", f"w{worker}-{i}", {"worker": worker, "i": i})
                store.get("schedule", f"w{worker}-{i}")
        except Exception as error:  # the contract: stores never raise
            errors.append(error)

    threads = [threading.Thread(target=writer, args=(w,)) for w in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert store.get("schedule", "w0-0") == {"worker": 0, "i": 0}
    assert len(store.entries()) == 100


def test_concurrent_processes_share_one_sqlite_store(tmp_path):
    """Two processes hammering the same sqlite file: no exceptions, last wins."""
    root = tmp_path / "cache"
    script = (
        "import sys; sys.path.insert(0, {src!r})\n"
        "from repro.cache import open_store\n"
        "store = open_store({root!r})\n"
        "for i in range(50):\n"
        "    store.put('schedule', f'k{{i}}', {{'who': sys.argv[1], 'i': i}})\n"
        "assert store.get('schedule', 'k0') is not None\n"
    ).format(src=str(REPO_ROOT / "src"), root=str(root))
    procs = [
        subprocess.Popen([sys.executable, "-c", script, name])
        for name in ("alpha", "beta")
    ]
    for proc in procs:
        assert proc.wait(timeout=60) == 0
    store = open_store(root)
    assert len(store.entries()) == 50
    assert store.get("schedule", "k49")["who"] in {"alpha", "beta"}


# ---------------------------------------------------------------------------
# schedule records: validation gauntlet
# ---------------------------------------------------------------------------


def _record_for(net, source="src.divisors.in"):
    return result_to_record(find_schedule(net, source, raise_on_failure=True))


def test_schedule_record_roundtrip(store):
    net = build_divisors_system().net
    record = _record_for(net)
    fp = structural_fingerprint(net)
    ofp = options_fingerprint(options_cache_key(SchedulerOptions()))
    store_schedule_record(
        store, net_fingerprint=fp, source="src.divisors.in", options_fp=ofp, record=record
    )
    loaded = load_schedule_record(
        store, net, net_fingerprint=fp, source="src.divisors.in", options_fp=ofp
    )
    assert loaded is not None
    assert loaded["schedule"] == record["schedule"]
    assert loaded["counters"] == record["counters"]


def test_stale_fingerprint_collision_is_rejected(store):
    """An entry whose key matches but whose payload belongs to a different
    net must not be trusted: identity check first, replay validation second."""
    divisors = build_divisors_system().net
    other = figure_6()
    record = _record_for(divisors)
    fp_other = structural_fingerprint(other)
    ofp = options_fingerprint(options_cache_key(SchedulerOptions()))
    # case 1: payload declares a different fingerprint than the key position
    store.put(
        "schedule",
        schedule_cache_key(fp_other, "src.divisors.in", ofp),
        {
            "net_fingerprint": "somebody-else",
            "source": "src.divisors.in",
            "options_fp": ofp,
            "record": record,
        },
    )
    assert (
        load_schedule_record(
            store, other, net_fingerprint=fp_other, source="src.divisors.in", options_fp=ofp
        )
        is None
    )
    # case 2: identity lines up but the schedule cannot replay on this net
    store.put(
        "schedule",
        schedule_cache_key(fp_other, "src.divisors.in", ofp),
        {
            "net_fingerprint": fp_other,
            "source": "src.divisors.in",
            "options_fp": ofp,
            "record": record,  # a divisors schedule: places unknown to figure_6
        },
    )
    assert (
        load_schedule_record(
            store, other, net_fingerprint=fp_other, source="src.divisors.in", options_fp=ofp
        )
        is None
    )
    assert store.quarantined_count() == 2


def test_malformed_record_shapes_are_rejected(store):
    net = build_divisors_system().net
    fp = structural_fingerprint(net)
    ofp = options_fingerprint(options_cache_key(SchedulerOptions()))
    good = _record_for(net)
    for bad in (
        {"schedule": None},  # missing required fields
        {**good, "counters": {"nodes_expanded": 1, "not_a_counter": 2}},
        {**good, "counters": "nope"},
    ):
        store.put(
            "schedule",
            schedule_cache_key(fp, "src.divisors.in", ofp),
            {
                "net_fingerprint": fp,
                "source": "src.divisors.in",
                "options_fp": ofp,
                "record": bad,
            },
        )
        assert (
            load_schedule_record(
                store, net, net_fingerprint=fp, source="src.divisors.in", options_fp=ofp
            )
            is None
        )


def test_schema_version_mismatch_is_a_miss(store):
    net = build_divisors_system().net
    fp = structural_fingerprint(net)
    ofp = options_fingerprint(options_cache_key(SchedulerOptions()))
    key = schedule_cache_key(fp, "src.divisors.in", ofp)
    payload = {
        "net_fingerprint": fp,
        "source": "src.divisors.in",
        "options_fp": ofp,
        "record": _record_for(net),
    }
    wire = json.loads(encode_wire(payload))
    wire["schema"] = SCHEMA_VERSION + 1
    store._write("schedule", key, json.dumps(wire))
    assert load_schedule_record(
        store, net, net_fingerprint=fp, source="src.divisors.in", options_fp=ofp
    ) is None


# ---------------------------------------------------------------------------
# warm-start integration
# ---------------------------------------------------------------------------


def test_two_level_cache_replays_across_instances(store):
    """A fresh cache instance (fresh L1) replays from the shared disk level,
    simulating a second process without forking one."""
    net = build_divisors_system().net
    first_cache = ScheduleWarmStartCache(store=store)
    first = first_cache.find_schedule(net, "src.divisors.in")
    assert not first.from_cache and first_cache.stats.misses == 1

    second_cache = ScheduleWarmStartCache(store=store)
    before = _live_nodes()
    replay = second_cache.find_schedule(build_divisors_system().net, "src.divisors.in")
    assert replay.from_cache
    assert second_cache.stats.disk_hits == 1 and second_cache.stats.misses == 0
    assert _live_nodes() == before  # zero EP search work
    assert schedule_to_json(replay.schedule) == schedule_to_json(first.schedule)
    assert replay.counters.as_dict() == first.counters.as_dict()


def test_failure_outcomes_replay_from_disk(store):
    net = figure_4b()
    cache = ScheduleWarmStartCache(store=store)
    first = cache.find_schedule(net, "a")
    assert not first.success and not first.from_cache
    second = ScheduleWarmStartCache(store=store).find_schedule(figure_4b(), "a")
    assert not second.success and second.from_cache
    assert second.failure_reason == first.failure_reason


def test_uncacheable_options_bypass_the_store(store):
    net = figure_5()
    cache = ScheduleWarmStartCache(store=store)
    options = SchedulerOptions(termination=NodeBudget(10_000))
    result = cache.find_schedule(net, "a", options=options)
    assert result.success and not result.from_cache
    assert cache.stats.uncacheable == 1
    assert store.entries() == []  # nothing persisted (or even keyed)


def test_memory_only_instance_ignores_active_store(tmp_path):
    """store=False keeps *schedules* memory-only; the T-invariant basis
    store is process-wide and still uses the active disk store."""
    artifact_cache.activate(path=tmp_path / "cache")
    cache = ScheduleWarmStartCache(store=False)
    cache.find_schedule(figure_5(), "a")
    entries = artifact_cache.active_store().entries()
    assert [e for e in entries if e.kind == "schedule"] == []


def test_options_key_differences_miss(store):
    net = figure_5()
    cache = ScheduleWarmStartCache(store=store)
    cache.find_schedule(net, "a", options=SchedulerOptions(max_nodes=1_000))
    other = ScheduleWarmStartCache(store=store)
    result = other.find_schedule(net, "a", options=SchedulerOptions(max_nodes=2_000))
    assert not result.from_cache  # max_nodes is part of the key
    assert other.stats.misses == 1


def test_record_with_retired_counter_keys_is_never_replayed(store):
    """Records written while SearchCounters still carried the per-backend
    expansion tallies must not replay, even under the current key."""
    net = build_divisors_system().net
    record = _record_for(net)
    record["counters"] = dict(
        record["counters"], batched_expansions=0, kernel_expansions=0
    )
    fp = structural_fingerprint(net)
    ofp = options_fingerprint(options_cache_key(SchedulerOptions()))
    store_schedule_record(
        store, net_fingerprint=fp, source="src.divisors.in", options_fp=ofp, record=record
    )
    assert (
        load_schedule_record(
            store, net, net_fingerprint=fp, source="src.divisors.in", options_fp=ofp
        )
        is None
    )
    cache = ScheduleWarmStartCache(store=store)
    result = cache.find_schedule(net, "src.divisors.in")
    assert result.success and not result.from_cache
    assert set(result.counters.as_dict()) == set(_record_for(net)["counters"])


def test_invariant_basis_persists_and_validates(tmp_path):
    store = artifact_cache.activate(path=tmp_path / "cache")
    net = figure_5()
    basis = t_invariant_basis(net)
    assert any(e.kind == "t_invariant_basis" for e in store.entries())
    # clear the in-process warm stores: a rebuilt net + cleared LRU must hit disk
    from repro.petrinet import invariants as invariants_module

    invariants_module._BASIS_WARM_STORE.clear()
    hits_before = store.stats.hits
    replayed = t_invariant_basis(figure_5())
    assert replayed == basis
    assert store.stats.hits == hits_before + 1
    # corrupt the stored basis: must be quarantined and recomputed, not trusted
    fp = incidence_fingerprint(net)
    key = artifact_cache.basis_cache_key(fp, 4096)
    store.put(
        "t_invariant_basis",
        key,
        {"incidence_fingerprint": fp, "max_rows": 4096, "basis": [{"a": 1, "zzz": 3}]},
    )
    invariants_module._BASIS_WARM_STORE.clear()
    assert load_invariant_basis(store, net, incidence_fp=fp, max_rows=4096) is None
    assert t_invariant_basis(figure_5()) == basis


def test_parallel_read_through_and_parent_writes(tmp_path):
    """``find_all_schedules`` reads every source through the store and writes
    each fresh record itself; a later process replays them all from disk
    without searching."""
    store = artifact_cache.activate(path=tmp_path / "cache")
    net = random_multi_source_net(3, 4, seed=7)
    first = find_all_schedules(net)
    assert not any(r.from_cache for r in first.values())
    assert sum(1 for e in store.entries() if e.kind == "schedule") == 3

    GLOBAL_SCHEDULE_CACHE.drop_memory()  # force the disk path
    before = _live_nodes()
    replay = find_all_schedules(random_multi_source_net(3, 4, seed=7))
    assert all(r.from_cache for r in replay.values())
    assert _live_nodes() == before
    for source in first:
        assert schedule_to_json(replay[source].schedule) == schedule_to_json(
            first[source].schedule
        )


def test_serial_and_parallel_share_cache_entries(tmp_path):
    """Per-source searches through the warm-start cache and the multi-source
    entry point share one key space: either one's records serve the other."""
    store = artifact_cache.activate(path=tmp_path / "cache")
    net = random_multi_source_net(2, 4, seed=3)
    single = {
        source: GLOBAL_SCHEDULE_CACHE.find_schedule(net, source)
        for source in net.uncontrollable_sources()
    }  # populates the cache
    assert sum(1 for e in store.entries() if e.kind == "schedule") == 2
    GLOBAL_SCHEDULE_CACHE.drop_memory()
    combined = find_all_schedules(random_multi_source_net(2, 4, seed=3))
    assert all(r.from_cache for r in combined.values())
    for source in single:
        assert schedule_to_json(combined[source].schedule) == schedule_to_json(
            single[source].schedule
        )


def test_env_dir_override_and_null_degradation(tmp_path, monkeypatch):
    # REPRO_CACHE_DIR moves the store
    target = tmp_path / "elsewhere"
    monkeypatch.setenv("REPRO_CACHE", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(target))
    artifact_cache.reset_active_store()
    store = artifact_cache.active_store()
    assert store is not None and str(target) in store.describe()
    find_all_schedules(figure_5(), sources=["a"])
    assert any(e.kind == "schedule" for e in store.entries())

    # REPRO_CACHE_DIR pointing somewhere unusable degrades to misses
    blocker = tmp_path / "blocker"
    blocker.write_text("file")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(blocker / "nested"))
    artifact_cache.reset_active_store()
    GLOBAL_SCHEDULE_CACHE.drop_memory()  # the in-memory hit would mask the miss
    null = artifact_cache.active_store()
    assert isinstance(null, NullStore)
    results = find_all_schedules(figure_5(), sources=["a"])  # still schedules fine
    assert results["a"].success and not results["a"].from_cache


def test_cache_off_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    artifact_cache.reset_active_store()
    assert artifact_cache.active_store() is None


def test_active_store_never_crosses_a_fork(tmp_path, monkeypatch):
    """A store resolved in one PID must not be handed out in another
    (sqlite connections are fork-unsafe): the resolution is re-run instead."""
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    store = artifact_cache.activate(path=tmp_path / "cache")
    assert artifact_cache.active_store() is store
    # simulate "we are now a forked child of the process that activated"
    monkeypatch.setattr(artifact_cache, "_ACTIVE_PID", os.getpid() - 1)
    assert artifact_cache.active_store() is not store  # env is unset -> None
    assert artifact_cache.active_store() is None


def test_disable_in_subprocess_leaves_inherited_store_untouched(tmp_path, monkeypatch):
    """A forked child abandons the inherited store without closing it: the
    parent's store object stays open and readable."""
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    store = artifact_cache.activate(path=tmp_path / "cache")
    store.put("schedule", "k", {"x": 1})
    # simulate "we are now a forked child of the process that activated"
    monkeypatch.setattr(artifact_cache, "_ACTIVE_PID", os.getpid() - 1)
    assert artifact_cache.active_store() is None
    artifact_cache.reset_active_store()  # the child's reset closes nothing inherited
    # the (conceptually parent-owned) store object was not closed
    assert store.get("schedule", "k") == {"x": 1}
    store.close()


def test_suspended_hides_then_restores_the_active_store(tmp_path):
    store = artifact_cache.activate(path=tmp_path / "cache")
    with artifact_cache.suspended():
        assert artifact_cache.active_store() is None
    assert artifact_cache.active_store() is store
    store.put("schedule", "k", {"x": 1})  # still open and writable
    assert store.get("schedule", "k") == {"x": 1}


def test_bench_timing_loop_does_not_consume_a_callers_store(tmp_path):
    """run_cli_bench must measure real searches and hand the caller's
    activated store back intact (neither closed nor deactivated)."""
    import sys

    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    try:
        from bench_scheduler import run_cli_bench
    finally:
        sys.path.pop(0)
    store = artifact_cache.activate(path=tmp_path / "cache")
    report = run_cli_bench(quick=True, cache=False)
    assert report["cases"][0]["serial_seconds"] > 0.001
    assert artifact_cache.active_store() is store
    store.put("schedule", "k", {"x": 1})
    assert store.get("schedule", "k") == {"x": 1}  # connection still live


def test_disk_rejected_counts_only_this_caches_rejections(store):
    net = build_divisors_system().net
    fp = structural_fingerprint(net)
    ofp = options_fingerprint(options_cache_key(SchedulerOptions()))
    # a corrupt entry under the exact key the lookup will use
    store.put(
        "schedule",
        schedule_cache_key(fp, "src.divisors.in", ofp),
        {"net_fingerprint": "wrong", "source": "src.divisors.in", "options_fp": ofp,
         "record": {}},
    )
    # unrelated quarantine history must not leak into the warm-start stats
    store.put("t_invariant_basis", "junk", {"x": 1})
    store.quarantine("t_invariant_basis", "junk", "unrelated")
    cache = ScheduleWarmStartCache(store=store)
    result = cache.find_schedule(net, "src.divisors.in")
    assert result.success and not result.from_cache
    assert cache.stats.disk_rejected == 1  # exactly the corrupt schedule entry
    # a plain miss afterwards does not bump the counter
    cache.find_schedule(figure_5(), "a")
    assert cache.stats.disk_rejected == 1


# ---------------------------------------------------------------------------
# the CLI
# ---------------------------------------------------------------------------


def test_cli_stats_clear_verify(tmp_path, capsys):
    root = tmp_path / "cache"
    store = open_store(root)
    # a real, correctly keyed schedule entry...
    net = build_divisors_system().net
    fp = structural_fingerprint(net)
    ofp = options_fingerprint(options_cache_key(SchedulerOptions()))
    store_schedule_record(
        store, net_fingerprint=fp, source="src.divisors.in", options_fp=ofp,
        record=_record_for(net),
    )
    # ...plus one whose wire record gets corrupted behind the store's back
    store.put("schedule", schedule_cache_key(fp, "t.other", ofp), {"fine": 2})
    conn = sqlite3.connect(store.path)
    conn.execute("UPDATE entries SET blob = 'junk' WHERE key LIKE '%t.other'")
    conn.commit()
    conn.close()
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
    store = open_store(root)
    net = build_divisors_system().net
    fp = structural_fingerprint(net)
    ofp = options_fingerprint(options_cache_key(SchedulerOptions()))
    # valid wire record, wrong identity: filed under a different fingerprint
    store.put(
        "schedule",
        schedule_cache_key("0" * 64, "src.divisors.in", ofp),
        {"net_fingerprint": fp, "source": "src.divisors.in", "options_fp": ofp,
         "record": _record_for(net)},
    )
    store.close()
    assert cache_cli(["verify", "--dir", str(root), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] == 0 and len(report["quarantined"]) == 1
    assert cache_cli(["stats", "--dir", str(root), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["quarantined"] == 1

def test_cli_stats_after_clear(tmp_path, capsys):
    root = tmp_path / "cache"
    open_store(root).put("schedule", "k", {"x": 1})
    cache_cli(["clear", "--dir", str(root)])
    capsys.readouterr()
    cache_cli(["stats", "--dir", str(root), "--json"])
    assert json.loads(capsys.readouterr().out)["entries"] == 0


# ---------------------------------------------------------------------------
# the acceptance criterion: a second process does zero search work
# ---------------------------------------------------------------------------

_ACCEPTANCE_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from repro.apps.divisors import build_divisors_system
from repro.apps.workloads import random_multi_source_net
from repro.scheduling.ep import find_all_schedules
from repro.scheduling.serialize import schedule_to_json
from repro.scheduling.warmstart import LIVE_SEARCH_COUNTERS

results = {}
results.update(find_all_schedules(build_divisors_system().net))
results.update(find_all_schedules(random_multi_source_net(3, 4, seed=11)))
out = {
    "schedules": {s: schedule_to_json(r.schedule) for s, r in results.items()},
    "from_cache": {s: r.from_cache for s, r in results.items()},
    "live_counters": LIVE_SEARCH_COUNTERS.as_dict(),
}
print(json.dumps(out))
"""


def _run_acceptance_process(cache_dir: Path) -> dict:
    env = dict(os.environ)
    env["REPRO_CACHE"] = "1"
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, "-c", _ACCEPTANCE_SCRIPT, str(REPO_ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
        cwd=str(REPO_ROOT),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_second_process_replays_byte_identical_with_zero_expansions(tmp_path):
    """ISSUE 4 acceptance: byte-identical schedules from the disk cache,
    zero EP search node expansions in the warm process."""
    cache_dir = tmp_path / "cache"
    cold = _run_acceptance_process(cache_dir)
    assert not any(cold["from_cache"].values())
    assert cold["live_counters"]["nodes_expanded"] > 0

    warm = _run_acceptance_process(cache_dir)
    assert all(warm["from_cache"].values())
    assert warm["live_counters"]["nodes_expanded"] == 0
    assert warm["live_counters"]["fires"] == 0
    assert warm["schedules"] == cold["schedules"]  # byte-identical replay
