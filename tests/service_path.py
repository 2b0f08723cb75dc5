"""One source through the daemon's lookup -> search -> write-through path.

``SchedulingService._compute`` is the only code that looks a record up in
the record cache, runs a live search on a miss and writes the outcome
through; the daemon runs it on its executor threads.  ``schedule_through``
calls it directly, without an event loop, so tests can drive the cache
levels (and hammer them from their own threads) synchronously.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.petrinet.fingerprint import structural_fingerprint
from repro.scheduling.ep import SchedulerOptions


def schedule_through(service, net, source, options=None) -> Tuple[Dict[str, object], str]:
    """Schedule ``source`` of ``net`` through ``service``'s cache levels.

    Returns what ``_compute`` does: the net-free result record
    (``serialize.result_to_record``) and its origin, ``"l1"``, ``"disk"``
    or ``"search"``.
    """
    options = options or SchedulerOptions()
    return service._compute(net, source, options, structural_fingerprint(net))


def without_clock(record) -> Dict[str, object]:
    """A result record minus ``elapsed_seconds``, the one field in which two
    searches of one net differ."""
    return {key: value for key, value in record.items() if key != "elapsed_seconds"}
