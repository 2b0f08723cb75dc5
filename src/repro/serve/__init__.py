"""Scheduling-as-a-service: a daemon that serves compile-time schedules.

The paper's scheduler is a pure function from ``(net structure, options)``
to a canonical schedule, and the preceding layers built every ingredient of
a serving stack -- structural fingerprints as request keys, the checksummed
disk cache as an L2, canonical JSON schedules as a wire format.  This
package wires them behind a listener:

* :mod:`repro.serve.protocol` -- the JSON-lines wire format: serialized
  nets or FlowC programs in, canonical schedule records out;
* :mod:`repro.serve.service` -- the engine and the record cache: an
  asyncio **single-flight map** coalescing concurrent requests for one
  ``(structural_fingerprint, options, source)`` key into one in-flight EP
  search, in front of the service's in-memory L1 and the persistent disk
  L2, with searches running on a bounded thread pool, per-waiter timeouts,
  and one block of hit/miss/coalesce counters plus per-phase latency
  histograms; a request memo in front of the map remembers every
  ``schedule`` line at its first answer and answers a repeat with the
  bytes the L1 would give it, while the L1 still holds the records they
  were built from;
* :mod:`repro.serve.server` -- the asyncio TCP transport with an
  introspection (``stats``) endpoint and graceful shutdown draining.

Example -- run the daemon::

    python -m repro.serve --port 7411 --workers 4

and talk to it one JSON object per line::

    {"op": "schedule", "net": {...}, "options": {"max_nodes": 50000}}
    {"op": "stats"}

``benchmarks/bench_serve.py`` drives thousands of concurrent clients
zipf-distributed over a net corpus against it and records the results in
the ``"serve"`` section of ``BENCH_scheduler.json``.
"""

from __future__ import annotations

from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    net_from_dict,
    net_to_dict,
    options_from_dict,
)
from repro.serve.server import ScheduleServer, start_server
from repro.serve.service import LatencyHistogram, SchedulingService, ServeMetrics

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "net_to_dict",
    "net_from_dict",
    "options_from_dict",
    "SchedulingService",
    "ServeMetrics",
    "LatencyHistogram",
    "ScheduleServer",
    "start_server",
]
