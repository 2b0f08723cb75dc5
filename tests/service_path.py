"""One source through the daemon's lookup -> search -> write-through path.

``SchedulingService._compute`` is the only code that looks a record up in
the record cache, runs a live search on a miss and writes the outcome
through; the daemon runs it on its executor threads.  ``schedule_through``
calls it directly, without an event loop, so tests can drive the cache
levels (and hammer them from their own threads) synchronously.
"""

from __future__ import annotations

from repro.petrinet.fingerprint import structural_fingerprint
from repro.scheduling.ep import SchedulerOptions, SchedulerResult
from repro.scheduling.serialize import result_from_record


def schedule_through(service, net, source, options=None) -> SchedulerResult:
    """Schedule ``source`` of ``net`` through ``service``'s cache levels.

    The record comes back as a :class:`SchedulerResult` bound to ``net``,
    with ``from_cache`` set when a cache level answered.
    """
    options = options or SchedulerOptions()
    record, origin = service._compute(net, source, options, structural_fingerprint(net))
    return result_from_record(net, source, record, from_cache=origin in ("l1", "disk"))
