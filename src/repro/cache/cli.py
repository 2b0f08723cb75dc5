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
from typing import Dict, Optional, Sequence

from repro.cache import SCHEMA_VERSION, SqliteStore, activate


def _cmd_stats(store: SqliteStore, as_json: bool) -> int:
    entries = store.entries()
    by_kind: Dict[str, Dict[str, int]] = {}
    for kind, _key, size in entries:
        bucket = by_kind.setdefault(kind, {"entries": 0, "bytes": 0})
        bucket["entries"] += 1
        bucket["bytes"] += size
    stats = {
        "backend": store.backend_name,
        "location": store.describe(),
        "schema_version": SCHEMA_VERSION,
        "entries": len(entries),
        "bytes": sum(size for _kind, _key, size in entries),
        "by_kind": by_kind,
        "quarantined": store.quarantined_count(),
    }
    if as_json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    print(f"cache store : {stats['location']}")
    print(f"schema      : v{stats['schema_version']}")
    print(f"entries     : {stats['entries']} ({stats['bytes']} bytes)")
    for kind, bucket in sorted(by_kind.items()):
        print(f"  {kind:<20} {bucket['entries']:>5} entries  {bucket['bytes']:>9} bytes")
    print(f"quarantined : {stats['quarantined']}")
    return 0


def _cmd_clear(store: SqliteStore) -> int:
    before = len(store.entries())
    store.clear()
    print(f"cleared {before} entries from {store.describe()}")
    return 0


def _cmd_verify(store: SqliteStore, as_json: bool) -> int:
    checked, failed = store.verify()
    report = {
        "checked": checked,
        "ok": checked - len(failed),
        "quarantined": [{"kind": kind, "key": key} for kind, key in failed],
        "location": store.describe(),
    }
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"verified {checked} entries in {report['location']}: "
              f"{report['ok']} ok, {len(failed)} quarantined")
        for kind, key in failed:
            print(f"  quarantined {kind}/{key}")
    return 1 if failed else 0


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
