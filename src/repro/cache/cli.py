"""``python -m repro.cache`` -- inspect and maintain the on-disk cache.

Three subcommands, all honouring ``--dir`` / ``$REPRO_CACHE_DIR``:

* ``stats``  -- entry counts and sizes per artifact kind, backend, location,
  quarantine population (``--json`` for machine-readable output);
* ``clear``  -- drop every entry, including the quarantine area;
* ``verify`` -- run every entry through the offline integrity checks: wire
  decode (schema version, checksum), payload identity against the key it is
  filed under, and result-record shape.  Corrupt entries are quarantined as
  they are found, exactly as a live lookup would do, and so is every entry
  of a kind no lookup reads (anything but ``schedule``, such as the
  T-invariant bases older versions wrote); exits non-zero when anything had
  to be quarantined.  (Replay validation against a *net* only happens on
  live lookups -- verify has no net to replay against.)
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence

from repro.cache import KIND_SCHEDULE, _record_fields_sane, activate
from repro.cache.stores import SCHEMA_VERSION, CacheStore


def _collect_stats(store: CacheStore) -> Dict[str, object]:
    entries = store.entries()
    by_kind: Dict[str, Dict[str, int]] = {}
    for entry in entries:
        bucket = by_kind.setdefault(entry.kind, {"entries": 0, "bytes": 0})
        bucket["entries"] += 1
        bucket["bytes"] += entry.size_bytes
    return {
        "backend": store.backend_name,
        "location": store.describe(),
        "schema_version": SCHEMA_VERSION,
        "entries": len(entries),
        "bytes": sum(e.size_bytes for e in entries),
        "by_kind": by_kind,
        "quarantined": store.quarantined_count(),
    }


def _cmd_stats(store: CacheStore, as_json: bool) -> int:
    stats = _collect_stats(store)
    if as_json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    print(f"cache store : {stats['location']}")
    print(f"schema      : v{stats['schema_version']}")
    print(f"entries     : {stats['entries']} ({stats['bytes']} bytes)")
    for kind, bucket in sorted(stats["by_kind"].items()):
        print(f"  {kind:<20} {bucket['entries']:>5} entries  {bucket['bytes']:>9} bytes")
    print(f"quarantined : {stats['quarantined']}")
    return 0


def _cmd_clear(store: CacheStore) -> int:
    before = len(store.entries())
    store.clear()
    print(f"cleared {before} entries from {store.describe()}")
    return 0


def _payload_matches_key(kind: str, key: str, payload: Dict[str, object]) -> bool:
    """Offline identity/shape checks mirroring the live-lookup gates.

    Keys are ``v<schema>.<fingerprint>.<options_fp>.<source>``; the payload
    must carry the same identity it is filed under.  Only schedule entries
    are ever read, so an entry of any other kind fails.
    """
    parts = key.split(".", 3)
    if kind != KIND_SCHEDULE or len(parts) != 4:
        return False
    _version, fingerprint, options_fp, source = parts
    return (
        payload.get("net_fingerprint") == fingerprint
        and payload.get("options_fp") == options_fp
        and payload.get("source") == source
        and _record_fields_sane(payload.get("record"))
    )


def _cmd_verify(store: CacheStore, as_json: bool) -> int:
    entries = store.entries()
    ok = 0
    bad: List[Dict[str, str]] = []
    for entry in entries:
        # .get runs the wire pipeline (schema, checksum) and quarantines on
        # corruption; the identity/shape gates run on what survives
        payload = store.get(entry.kind, entry.key)
        if payload is not None and _payload_matches_key(entry.kind, entry.key, payload):
            ok += 1
        else:
            if payload is not None:
                reason = (
                    "payload does not match its key"
                    if entry.kind == KIND_SCHEDULE
                    else "no lookup reads this kind"
                )
                store.quarantine(entry.kind, entry.key, reason)
            bad.append({"kind": entry.kind, "key": entry.key})
    report = {
        "checked": len(entries),
        "ok": ok,
        "quarantined": bad,
        "location": store.describe(),
    }
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"verified {report['checked']} entries in {report['location']}: "
              f"{ok} ok, {len(bad)} quarantined")
        for item in bad:
            print(f"  quarantined {item['kind']}/{item['key']}")
    return 1 if bad else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``python -m repro.cache``; returns the process exit code."""
    # shared flags, accepted both before and after the subcommand; SUPPRESS
    # keeps an unprovided subparser flag from overwriting a pre-subcommand one
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--dir",
        default=argparse.SUPPRESS,
        help="cache directory (default: $REPRO_CACHE_DIR or .cache/repro)",
    )
    shared.add_argument(
        "--json",
        action="store_true",
        default=argparse.SUPPRESS,
        help="machine-readable output",
    )
    parser = argparse.ArgumentParser(
        prog="python -m repro.cache",
        description="Inspect and maintain the persistent scheduling artifact cache.",
        parents=[shared],
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "stats", help="entry counts and sizes per artifact kind", parents=[shared]
    )
    sub.add_parser(
        "clear", help="drop every entry, including quarantine", parents=[shared]
    )
    sub.add_parser(
        "verify",
        help="integrity-check every entry, quarantining corrupt ones",
        parents=[shared],
    )
    args = parser.parse_args(argv)
    cache_dir = getattr(args, "dir", None)
    as_json = getattr(args, "json", False)

    store = activate(cache_dir)
    try:
        if args.command == "stats":
            return _cmd_stats(store, as_json)
        if args.command == "clear":
            return _cmd_clear(store)
        return _cmd_verify(store, as_json)
    finally:
        store.close()


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
