"""The scheduling service: single-flight coalescing over a bounded executor.

This is the daemon's engine, independent of any transport.  One
:class:`SchedulingService` owns

* a **bounded thread pool** running the actual EP searches (and disk-cache
  I/O) off the event loop;
* the **record cache**: an in-memory L1 (a :class:`~repro.util.BoundedLRU`
  of result records keyed on ``(structural_fingerprint, source,
  options_cache_key)``) plus, when the service was given a disk store, the
  disk L2 (:mod:`repro.cache`).  Every options value has a key, and the
  executor body ``_compute`` is the one place that reads the L1, then the
  disk, runs a live search on a miss and writes the outcome through to
  both levels;
* the **single-flight map**: concurrent requests for one L1 key coalesce
  onto one in-flight future, so a stampede of N identical requests costs
  exactly one EP search (the other N-1 *await* it and receive the same
  record);
* the **request memo** in front of that map: a bounded LRU (sized like
  the L1) from a digest of a request line to the response bytes a repeat
  of it gets, bound to the L1 records they were built from.  Every
  ``schedule`` line is remembered at its first answer, and a repeat is
  answered with those bytes while every record is still the one its L1
  key holds (:meth:`SchedulingService.recall`), counted as the L1 hits it
  stands for;
* :class:`ServeMetrics`, the one counter block the introspection endpoint
  reports (each lookup bumps exactly one of ``l1_hits``, ``disk_hits`` and
  ``live_searches``, and a waiter that joins an in-flight search bumps
  ``coalesced``), plus queue depth and per-phase latency histograms.

Timeouts and cancellation are **per waiter, never per search**: a client
that gives up (timeout, dropped connection) detaches from the shared future
without cancelling it -- the search keeps running for the remaining waiters
and still populates the caches for the next request.  The search itself is
bounded by ``SchedulerOptions.max_nodes``, which is what actually stops a
runaway exploration.

The sources of one multi-source request are scheduled *sequentially*: a
``PetriNet`` object's lazy derived caches (indexed snapshot, structural
analysis) are not safe to build from two threads at once.  Concurrency --
and the coalescing win -- comes from the population of independent
requests, each of which carries its own net object.
"""

from __future__ import annotations

import asyncio
import bisect
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cache import options_cache_key
from repro.petrinet.fingerprint import structural_fingerprint
from repro.petrinet.net import PetriNet
from repro.scheduling.ep import SchedulerOptions, find_schedule
from repro.scheduling.serialize import (
    result_to_record,
    schedule_dict_fingerprint,
)
from repro.serve.protocol import ProtocolError
from repro.util import BoundedLRU

_UNSET = object()


class LatencyHistogram:
    """Fixed log2 latency buckets (15.625us .. ~65s), thread-safe.

    Small enough to ship in every ``stats`` response, coarse enough to never
    need rebinning; the overflow bucket catches anything slower than the
    largest bound.  The sub-millisecond bounds tell memo hits (tens of
    microseconds) from L1 hits and live searches.
    """

    #: Upper bounds in seconds: 2**-6 ms (15.625us), 2**-5 ms, ... 65.536s.
    BOUNDS = tuple(0.001 * (2**i) for i in range(-6, 17))

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = [0] * (len(self.BOUNDS) + 1)
        self.count = 0
        self.total_seconds = 0.0
        self.max_seconds = 0.0

    def observe(self, seconds: float) -> None:
        """Record one measurement."""
        index = bisect.bisect_left(self.BOUNDS, seconds)
        with self._lock:
            self._counts[index] += 1
            self.count += 1
            self.total_seconds += seconds
            self.max_seconds = max(self.max_seconds, seconds)

    @staticmethod
    def _label(bound: float) -> str:
        return f"<={bound * 1000:g}ms" if bound < 1 else f"<={bound:g}s"

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly snapshot; zero buckets are omitted for brevity."""
        with self._lock:
            buckets = {}
            for bound, count in zip(self.BOUNDS, self._counts):
                if count:
                    buckets[self._label(bound)] = count
            if self._counts[-1]:
                buckets[f">{self.BOUNDS[-1]:g}s"] = self._counts[-1]
            mean = self.total_seconds / self.count if self.count else 0.0
            return {
                "count": self.count,
                "mean_seconds": round(mean, 6),
                "max_seconds": round(self.max_seconds, 6),
                "buckets": buckets,
            }


class ServeMetrics:
    """Counter block of one service instance (all increments locked).

    Every source a ``schedule`` response answers counts exactly once, in
    one of ``l1_hits`` (the in-memory record cache, memo hits included),
    ``disk_hits`` (a record loaded and replay-validated from the disk
    store), ``live_searches`` (an EP search) and ``coalesced`` (a waiter on
    another request's in-flight lookup).  ``disk_rejected`` counts the
    disk entries a lookup found corrupt or foreign and quarantined before
    missing, each once however lookups overlap.
    """

    COUNTERS = (
        "requests",
        "responses",
        "errors",
        "bad_requests",
        "timeouts",
        "coalesced",
        "l1_hits",
        "disk_hits",
        "live_searches",
        "disk_rejected",
        "memo_hits",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        for name in self.COUNTERS:
            setattr(self, name, 0)
        # a request answered from the memo records "memo" and "total" only;
        # any other schedule request records parse, build, search per source
        # and total
        self.phases: Dict[str, LatencyHistogram] = {
            "parse": LatencyHistogram(),
            "build": LatencyHistogram(),
            "search": LatencyHistogram(),
            "memo": LatencyHistogram(),
            "total": LatencyHistogram(),
        }

    def bump(self, name: str, amount: int = 1) -> None:
        """Thread-safe increment of one counter."""
        with self._lock:
            setattr(self, name, getattr(self, name) + amount)

    def as_dict(self) -> Dict[str, object]:
        """Snapshot of counters + histograms for the stats endpoint."""
        with self._lock:
            counters = {name: getattr(self, name) for name in self.COUNTERS}
        counters["cache_hits"] = counters["l1_hits"] + counters["disk_hits"]
        return {
            **counters,
            "latency": {name: hist.as_dict() for name, hist in self.phases.items()},
        }


class SchedulingService:
    """Coalescing, cache-fronted scheduling engine (transport-agnostic).

    Parameters: ``max_workers`` bounds the searching thread pool (the queue
    behind it is unbounded -- admission control is the transport's job);
    ``search_timeout`` is the default per-*waiter* deadline in seconds
    (``None`` waits forever); ``l1_capacity`` sizes the in-memory record
    LRU and the request memo; ``store`` is the disk L2, e.g. the store
    ``repro.cache.activate(path)`` opens (``None``, the default, keeps the
    service memory-only).  The service is the daemon's record cache: it
    holds the L1 itself and reads and writes the store.

    Example::

        >>> import asyncio
        >>> from repro.apps.paper_nets import figure_5
        >>> service = SchedulingService(max_workers=2)
        >>> async def demo():
        ...     payloads, _bindings = await service.schedule_net(figure_5(), ["a"], None)
        ...     return payloads[0]["success"]
        >>> asyncio.run(demo())
        True
    """

    def __init__(
        self,
        *,
        max_workers: int = 4,
        search_timeout: Optional[float] = None,
        l1_capacity: int = 256,
        store=None,
    ):
        self.search_timeout = search_timeout
        self.metrics = ServeMetrics()
        self._store = store
        # (fingerprint, source, opts_key) -> result record
        self._l1: "BoundedLRU[Tuple, Dict[str, object]]" = BoundedLRU(l1_capacity)
        # request digest -> (response line, ((L1 key, record), ...))
        self._memo: "BoundedLRU[bytes, Tuple[bytes, Tuple]]" = BoundedLRU(
            l1_capacity
        )
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-serve"
        )
        self._max_workers = max_workers
        # (fingerprint, source, opts_key) -> future of (record, origin)
        self._inflight: Dict[Tuple, "asyncio.Future"] = {}
        self._search_tasks: set = set()
        self._active_searches = 0
        self._active_lock = threading.Lock()
        self._closed = False
        # test hook: wraps the underlying search (e.g. to inject latency)
        self._search_fn = find_schedule

    # -- introspection ------------------------------------------------------
    def queue_depth(self) -> Dict[str, int]:
        """In-flight work: distinct coalesced keys, busy workers, queued keys."""
        with self._active_lock:
            active = self._active_searches
        inflight = len(self._inflight)
        return {
            "inflight_keys": inflight,
            "active_searches": active,
            "queued_searches": max(0, inflight - active),
            "max_workers": self._max_workers,
        }

    def snapshot(self) -> Dict[str, object]:
        """The stats payload: the metrics, queue depth and cache sizes."""
        return {
            **self.metrics.as_dict(),
            "queue": self.queue_depth(),
            "l1_entries": len(self._l1),
            "memo_entries": len(self._memo),
        }

    # -- request memo -------------------------------------------------------
    def recall(self, digest: bytes) -> Optional[bytes]:
        """The response line remembered for a request digest, or ``None``.

        The entry answers only while every record it is bound to is still
        the very object its L1 key holds (an evicted key, or one searched or
        loaded again since, holds another).  Each key is read in order,
        refreshing its recency as a lookup does, and the answer counts one
        ``l1_hits`` per source, exactly as the lookups it replaces would.  A
        stale entry is dropped and the request takes the full path.
        """
        entry = self._memo.get(digest)
        if entry is None:
            return None
        response, bindings = entry
        for key, record in bindings:
            if self._l1.get(key) is not record:
                self._memo.discard(digest)
                return None
        self.metrics.bump("l1_hits", len(bindings))
        self.metrics.bump("memo_hits")
        return response

    def remember(self, digest: bytes, response: bytes, bindings: Tuple) -> None:
        """Keep ``response`` for the next request line with ``digest``.

        ``bindings`` is what :meth:`schedule_net` returned for the
        request: one ``(L1 key, record)`` pair per source.  ``response``
        must be the bytes a repeat of the line gets from the full path
        while the L1 holds those records, every source ``from_cache``.
        """
        self._memo.put(digest, (response, bindings))

    # -- core ---------------------------------------------------------------
    async def schedule_net(
        self,
        net: PetriNet,
        sources: Sequence[str],
        options: Optional[SchedulerOptions],
        *,
        fingerprint: Optional[str] = None,
        timeout=_UNSET,
    ) -> Tuple[List[Dict[str, object]], Tuple]:
        """Schedule ``sources`` of ``net``: the per-source payloads, and the
        records they were built from.

        Sources are processed sequentially (see the module docstring); each
        one independently coalesces with any identical request currently in
        flight anywhere in the process.  ``fingerprint`` is the net's
        structural fingerprint when the caller already has it (the server
        computes it while building the net).  The second item holds one
        ``(L1 key, record)`` pair per source, whatever its origin: the record
        is the very object ``_compute`` found in or put into the L1, so a
        repeat of the request reads it from there until the key is evicted
        or replaced (:meth:`remember`, :meth:`recall`).

        Raises :class:`ProtocolError` (kind ``timeout``) when a waiter
        deadline expires first; the underlying search is *not* cancelled.
        """
        options = options or SchedulerOptions()
        if fingerprint is None:
            # fingerprinting walks the whole net: off the event loop
            fingerprint = await asyncio.get_running_loop().run_in_executor(
                self._executor, structural_fingerprint, net
            )
        payloads, bindings = [], []
        for source in sources:
            payload, binding = await self._schedule_source(
                net, source, options, fingerprint, timeout
            )
            payloads.append(payload)
            bindings.append(binding)
        return payloads, tuple(bindings)

    async def _schedule_source(self, net, source, options, fingerprint, timeout):
        """One source's canonical payload and its ``(L1 key, record)``,
        coalescing duplicates (the single-flight step)."""
        if self._closed:
            raise ProtocolError("shutting-down", "service is draining")
        loop = asyncio.get_running_loop()
        if timeout is _UNSET:
            timeout = self.search_timeout
        # the single-flight key is also the record's L1 key
        key = (fingerprint, source, options_cache_key(options))
        future = self._inflight.get(key)
        if future is None:
            future = loop.create_future()
            # consume exceptions even if every waiter gave up before the
            # search finished, else the event loop logs a spurious warning
            future.add_done_callback(
                lambda f: f.exception() if not f.cancelled() else None
            )
            self._inflight[key] = future
            task = loop.create_task(
                self._drive_search(key, future, net, source, options, fingerprint)
            )
            self._search_tasks.add(task)
            task.add_done_callback(self._search_tasks.discard)
        else:
            self.metrics.bump("coalesced")
        try:
            # shield: a cancelled/timed-out waiter must not tear down the
            # shared search the other waiters are still attached to
            record, origin = await asyncio.wait_for(asyncio.shield(future), timeout)
        except asyncio.TimeoutError:
            self.metrics.bump("timeouts")
            raise ProtocolError(
                "timeout",
                f"scheduling {source!r} did not finish within {timeout}s "
                "(the search continues for other waiters)",
            )
        return self._payload(source, fingerprint, record, origin), (key, record)

    async def _drive_search(
        self, key, future, net, source, options, fingerprint
    ) -> None:
        """Owner task of one in-flight key: runs the search, fans the result out."""
        loop = asyncio.get_running_loop()
        try:
            outcome = await loop.run_in_executor(
                self._executor, self._compute, net, source, options, fingerprint
            )
        except BaseException as error:  # noqa: BLE001 - fan the failure out
            if not future.done():
                if isinstance(error, ProtocolError):
                    future.set_exception(error)
                else:
                    future.set_exception(
                        ProtocolError("internal", f"scheduling failed: {error!r}")
                    )
        else:
            if not future.done():
                future.set_result(outcome)
        finally:
            self._inflight.pop(key, None)

    def _compute(self, net, source, options, fingerprint):
        """Executor-thread body: the one lookup -> search -> write-through path.

        Reads the L1, then the disk store (a disk hit is promoted into the
        L1), and on a miss runs a live search whose outcome is written
        through to both levels.  Returns ``(record, origin)``, ``origin``
        being ``"l1"``, ``"disk"`` or ``"search"``, and bumps exactly one of
        the ``l1_hits``, ``disk_hits`` and ``live_searches`` counters.
        """
        start = time.perf_counter()
        with self._active_lock:
            self._active_searches += 1
        try:
            opts_key = options_cache_key(options)
            key = (fingerprint, source, opts_key)
            record = self._l1.get(key)
            if record is not None:
                self.metrics.bump("l1_hits")
                return record, "l1"
            if self._store is not None:
                record, quarantined = self._store.load(net, fingerprint, source, opts_key)
                if record is not None:
                    self.metrics.bump("disk_hits")
                    self._l1.put(key, record)
                    return record, "disk"
                if quarantined:  # the entry this lookup found failed a gate
                    self.metrics.bump("disk_rejected")
            record = result_to_record(self._search_fn(net, source, options=options))
            self.metrics.bump("live_searches")
            self._l1.put(key, record)
            if self._store is not None:
                self._store.save(fingerprint, source, opts_key, record)
            return record, "search"
        finally:
            with self._active_lock:
                self._active_searches -= 1
            self.metrics.phases["search"].observe(time.perf_counter() - start)

    @staticmethod
    def _payload(
        source: str,
        net_fingerprint: str,
        record: Mapping[str, object],
        origin: str,
    ) -> Dict[str, object]:
        """The canonical per-source response body.

        Deliberately free of per-waiter detail (who coalesced, who owned the
        search): every one of N coalesced requesters receives byte-identical
        results, which is what the regression tests pin.
        """
        schedule = record.get("schedule")
        return {
            "source": source,
            "net_fingerprint": net_fingerprint,
            "success": schedule is not None,
            "schedule": schedule,
            "schedule_fingerprint": (
                schedule_dict_fingerprint(schedule) if schedule is not None else None
            ),
            "tree_nodes": record.get("tree_nodes"),
            "elapsed_seconds": record.get("elapsed_seconds"),
            "failure_reason": record.get("failure_reason"),
            "counters": record.get("counters"),
            "from_cache": origin in ("l1", "disk"),
        }

    # -- lifecycle ----------------------------------------------------------
    async def drain(self, deadline: Optional[float] = None) -> bool:
        """Stop admitting work and wait for in-flight searches to finish.

        Returns True when everything completed within ``deadline`` seconds
        (``None``: wait forever); leftover tasks keep running on the
        executor but their results are dropped.
        """
        self._closed = True
        pending = list(self._search_tasks)
        if not pending:
            return True
        done, not_done = await asyncio.wait(pending, timeout=deadline)
        return not not_done

    def close(self) -> None:
        """Release the executor (idempotent; in-flight threads finish first)."""
        self._closed = True
        self._executor.shutdown(wait=False)
