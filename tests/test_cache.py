"""The daemon's record cache: round-trips, failure modes, acceptance.

Three layers of coverage:

* the stores themselves (sqlite, and the NullStore it degrades to):
  wire-format integrity, quarantine, concurrent writers, unusable locations;
* the record cache as the daemon drives it (``SchedulingService._compute``:
  lookup, live search on a miss, write-through): two levels, replay
  validation, fingerprint-collision rejection, the CLI;
* the headline acceptance: a **second process** running a service over the
  same store replays byte-identical schedules from disk with zero live
  searches.

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

from repro.apps.divisors import build_divisors_system
from repro.apps.paper_nets import figure_4b, figure_5, figure_6
from repro.cache import (
    NullStore,
    SqliteStore,
    activate,
    load_schedule_record,
    options_cache_key,
    options_fingerprint,
    schedule_cache_key,
    store_schedule_record,
)
from repro.cache.cli import main as cache_cli
from repro.cache.stores import SCHEMA_VERSION, decode_wire, encode_wire
from repro.petrinet.fingerprint import structural_fingerprint
from repro.petrinet.invariants import t_invariant_basis
from repro.scheduling.ep import SchedulerOptions, find_all_schedules, find_schedule
from repro.scheduling.serialize import result_to_record, schedule_to_dict
from repro.serve import SchedulingService
from service_path import schedule_through

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(params=["sqlite"])
def store(request, tmp_path):
    s = activate(tmp_path / "cache")
    assert s.backend_name == request.param
    yield s
    s.close()


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
    store = activate(root)
    assert store.backend_name == "sqlite"  # rotated the bad file, started fresh
    assert store.get("schedule", "k") is None
    store.put("schedule", "k", {"ok": 1})
    assert store.get("schedule", "k") == {"ok": 1}
    assert (root / f"{SqliteStore.FILENAME}.corrupt-0").exists()


def test_unwritable_location_yields_null_store(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    store = activate(blocker / "sub")  # cannot mkdir below a file
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
        store = activate(root / "cache")
        assert isinstance(store, NullStore)
        assert store.get("schedule", "k") is None
    finally:
        root.chmod(0o755)


def test_sqlite_that_cannot_open_yields_null_store_and_search_runs(tmp_path, monkeypatch):
    """A writable directory where sqlite itself cannot open a database: the
    cache is a NullStore naming the sqlite error, and a service over it
    still searches."""
    reference = find_all_schedules(figure_5())

    def refuse(*args, **kwargs):
        raise sqlite3.OperationalError("disk I/O error")

    monkeypatch.setattr(sqlite3, "connect", refuse)
    root = tmp_path / "cache"
    store = activate(path=root)
    assert root.is_dir()
    assert isinstance(store, NullStore)
    assert "OperationalError: disk I/O error" in store.describe()
    service = SchedulingService(store=store)
    for source in reference:
        record, origin = schedule_through(service, figure_5(), source)
        assert origin == "search"
        assert record["schedule"] == schedule_to_dict(reference[source].schedule)
    assert service.snapshot()["live_searches"] == len(reference)


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
        "from repro.cache import activate\n"
        "store = activate({root!r})\n"
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
    store = activate(root)
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


@pytest.mark.parametrize("node", [0, 1])
def test_a_record_naming_a_place_the_net_lacks_is_quarantined(store, node):
    """Replay validation refuses a record whose schedule names a place the
    live net lacks, though its identity, shape and every other marking line
    up: Figure 5's record with ``["zz_ghost", 1]`` added to the root or to
    node 1."""
    net = figure_5()
    fp = structural_fingerprint(net)
    ofp = options_fingerprint(options_cache_key(SchedulerOptions()))
    record = _record_for(net, "a")
    store_schedule_record(store, net_fingerprint=fp, source="a", options_fp=ofp, record=record)
    assert load_schedule_record(store, net, net_fingerprint=fp, source="a", options_fp=ofp)
    record["schedule"]["nodes"][node]["marking"].append(["zz_ghost", 1])
    store_schedule_record(store, net_fingerprint=fp, source="a", options_fp=ofp, record=record)
    assert load_schedule_record(store, net, net_fingerprint=fp, source="a", options_fp=ofp) is None
    assert store.quarantined_count() == 1


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
    assert any(e.kind == "schedule" for e in store.entries())
    store.close()

    # REPRO_CACHE_DIR pointing somewhere unusable degrades to misses
    blocker = tmp_path / "blocker"
    blocker.write_text("file")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(blocker / "nested"))
    null = activate()
    assert isinstance(null, NullStore)
    record, origin = schedule_through(SchedulingService(store=null), figure_5(), "a")
    assert record["schedule"] is not None and origin == "search"  # still schedules fine


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
    # unrelated quarantine history must not leak into the service's counters
    store.put("t_invariant_basis", "junk", {"x": 1})
    store.quarantine("t_invariant_basis", "junk", "unrelated")
    service = SchedulingService(store=store)
    record, origin = schedule_through(service, net, "src.divisors.in")
    assert record["schedule"] is not None and origin == "search"
    assert service.snapshot()["disk_rejected"] == 1  # exactly the corrupt schedule entry
    # a plain miss afterwards does not bump the counter
    schedule_through(service, figure_5(), "a")
    assert service.snapshot()["disk_rejected"] == 1


# ---------------------------------------------------------------------------
# the CLI
# ---------------------------------------------------------------------------


def test_cli_stats_clear_verify(tmp_path, capsys):
    root = tmp_path / "cache"
    store = activate(root)
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
    store = activate(root)
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


def test_cli_verify_quarantines_kinds_no_lookup_reads(tmp_path, capsys):
    """Lookups read schedule entries only: a T-invariant basis entry as
    older versions wrote it, and an entry of a kind nothing knows, fail
    verify and are quarantined."""
    root = tmp_path / "cache"
    store = activate(root)
    incidence_fp = "0" * 64
    store.put(
        "t_invariant_basis",
        f"v{SCHEMA_VERSION}.{incidence_fp}.rows4096",
        {"incidence_fingerprint": incidence_fp, "max_rows": 4096,
         "basis": t_invariant_basis(figure_5())},
    )
    store.put("mystery", "k", {"x": 1})
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


def test_cli_stats_after_clear(tmp_path, capsys):
    root = tmp_path / "cache"
    activate(root).put("schedule", "k", {"x": 1})
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
