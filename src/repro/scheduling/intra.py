"""Intra-search work stealing: parallelism *within* one EP search.

The per-source fan-out (:mod:`repro.scheduling.parallel`) cannot help the
paper's flagship PFC nets: they have exactly one uncontrollable source, so
one EP search owns the whole wall clock.  This module partitions that search
instead, behind ``SchedulerOptions.intra_workers``.

Partition rule
--------------

The split unit is the **per-ECS subtree**.  At a node ``v`` whose candidate
list holds two or more ECSs, ``_ep`` calls ``_ep_ecs(ecs, v, target)`` with
the *same* target for every candidate (the ``current_target`` threading is
internal to one ``_ep_ecs``), so the candidate subtrees are independently
computable.  The parent runs the ordinary EP recursion top-down and, at every
such node, publishes one *subtree task* per candidate ECS to a shared queue
before descending into the first -- the growing frontier of independent open
subtree roots that workers steal from.  When only part of a node's candidate
list fits the outstanding-task budget, :func:`repro.scheduling.independence.
prefer_disjoint_forks` picks the structurally independent (place-disjoint)
candidates first -- conflicting subtrees re-explore overlapping markings and
are the least profitable to split.

Execution and merge order
-------------------------

Workers -- and the parent, while it waits -- steal tasks and run them
*detached*: a fresh ``_EPSearch`` rebuilds the root..v path prefix by firing
the prefix transitions, zeroes its counters (the parent already accounted the
prefix), and runs ``_ep_ecs`` on the candidate ECS locally.  Nets reach
worker processes through the shared-memory plane
(:func:`repro.petrinet.shm.acquire_shared_plane`), falling back to pickled
bytes under the existing ``RuntimeWarning`` contract.  A finished subtree
travels back as ``(node records, entering point, SearchCounters,
marking-store delta)``; the parent consumes the per-ECS results in the exact
serial order (including the early-exit and defer-sources rules), translating
local node indices onto the shared tree -- so node allocation order, the
final schedule, its fingerprint and the tree shape are byte-identical to the
serial search regardless of worker count or steal interleaving.  Results
past a serial early-exit are discarded unmerged, exactly as the serial
search never computes them.

Fallback ladder (every rung produces the serial result)
-------------------------------------------------------

1. subtree stolen by a worker process and spliced;
2. subtree executed detached by the parent while it waited on another;
3. subtree executed inline at the serial point: the task was still
   unclaimed when its turn came, the splice would land too close to the
   node budget (worker-local node indices make the budget more permissive,
   so near ``max_nodes`` only the serial indices are trusted), or the
   worker raised / died mid-subtree (one ``RuntimeWarning`` per search);
4. no forking at all: ``intra_workers=1``, a termination condition that
   does not decompose into frontier masks plus node budgets (custom
   conditions may inspect global node indices, which a detached subtree
   cannot reproduce), unpicklable options, or every helper process gone.

Counters match the serial search exactly except the
:data:`~repro.scheduling.ep.SearchCounters.BACKEND_ONLY` expansion tallies
(a stolen subtree re-expands its root frontier segment once instead of
reusing the parent's lookahead rows), which were already excluded from
identity checks by the backend-equivalence contract.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import queue as queue_module
import time
import warnings
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.petrinet.analysis import StructuralAnalysis
from repro.petrinet.fingerprint import structural_fingerprint
from repro.petrinet.indexed import MarkingVec
from repro.petrinet.net import PetriNet
from repro.petrinet.shm import SharedNetHandle, acquire_shared_plane
from repro.scheduling.ep import (
    ECS,
    UNDEF,
    SchedulerOptions,
    SchedulerResult,
    SearchCounters,
    _EPSearch,
    _Frontier,
)
from repro.scheduling.independence import prefer_disjoint_forks
from repro.scheduling.termination import split_frontier_conditions
from repro.util import raised_recursion_limit

# -- tuning knobs ------------------------------------------------------------

#: outstanding (published-but-unresolved) subtree tasks allowed per live
#: helper; bounds speculation waste when the serial order keeps early-exiting
OUTSTANDING_PER_HELPER = 4

#: seconds of zero progress (no messages, nothing stealable) before the
#: parent gives up on a stolen subtree and recomputes it inline
STALL_TIMEOUT = 30.0

# -- test-only hooks ---------------------------------------------------------

#: when set, permutes the order in which a fork node's task envelopes are
#: published to the shared queue (the steal order) -- determinism tests prove
#: the result is identical under any permutation.  Signature:
#: ``hook(envelopes: list) -> list`` (same elements, any order).
_publish_order_hook = None

#: when set, stamps a fault into published task envelopes -- ``"raise"``
#: makes the claiming worker raise mid-subtree, ``"die"`` makes it exit
#: without replying.  Signature: ``hook(task_id: int) -> Optional[str]``.
#: The parent leaves faulted envelopes to worker processes (while any are
#: alive) so the degradation path is actually exercised.
_fault_hook = None

#: sentinel distinct from UNDEF (= None): "result cannot be spliced here"
_INVALID_SPLICE = object()


# -- task wire format --------------------------------------------------------


@dataclass
class _SubtreeTask:
    """One stolen subtree: everything a detached executor needs."""

    task_id: int
    epoch: int
    fingerprint: str
    handle: Optional[SharedNetHandle]
    payload: Optional[bytes]
    options_blob: bytes
    source: str
    # transitions fired along root..v (the task's path prefix), root first
    prefix_tids: Tuple[int, ...]
    # depth of the entering-point target (targets always lie on the prefix)
    target_depth: int
    # the candidate ECS, as sorted transition names
    ecs_names: Tuple[str, ...]
    fault: Optional[str] = None


@dataclass
class SubtreeOutcome:
    """A detached subtree's result, in parent-spliceable form."""

    prefix_len: int
    nodes_allocated: int
    # per allocated node, in allocation order:
    # (parent_local, tid, vec, ecs_choice, equal_ancestor_local)
    records: List[Tuple[int, int, MarkingVec, Optional[ECS], Optional[int]]]
    # local index of the entering point, or None (= UNDEF)
    entering_local: Optional[int]
    counters: Dict[str, int]
    # marking-store admissions of the subtree (probes included), in order
    new_vecs: List[MarkingVec]


def run_subtree_task(
    net: PetriNet,
    task: _SubtreeTask,
    options: SchedulerOptions,
    analysis: Optional[StructuralAnalysis] = None,
) -> SubtreeOutcome:
    """Execute one subtree task detached: rebuild the prefix, run ``_ep_ecs``.

    Shared by worker processes and the parent's wait-time steals.  The
    replayed prefix reproduces the serial search's entire path state
    (markings-on-path index, token-total multiset, dense path matrix, the
    incremental enabled-set chain), so every path-local termination verdict
    and cycle check inside the subtree is byte-identical to the serial
    search's; only node *indices* are smaller, which the parent's splice
    validity check accounts for.
    """
    search = _EPSearch(net, task.source, options, analysis=analysis)
    tree = search.tree
    inet = search.inet
    vec = inet.initial_vec
    node = tree.add_root(vec)
    tree.push(node)
    for tid in task.prefix_tids:
        vec = inet.fire_vec(tid, vec)
        node = tree.add_child(node, tid, vec)
        tree.push(node)
    tree.enabled_of(node)  # warm the incremental enabled-set chain
    # the prefix replay is bookkeeping, not search work -- the parent already
    # accounted these nodes; the subtree's counters must start from zero
    for field_name in search.counters.as_dict():
        setattr(search.counters, field_name, 0)
    store_mark = len(tree.store)
    prefix_len = len(task.prefix_tids) + 1
    ecs = frozenset(task.ecs_names)
    with raised_recursion_limit():
        entering = search._ep_ecs(ecs, node, task.target_depth, None)
    records = [
        (n.parent, n.tid, n.vec, n.ecs_choice, n.equal_ancestor)
        for n in tree.nodes[prefix_len:]
    ]
    return SubtreeOutcome(
        prefix_len=prefix_len,
        nodes_allocated=len(tree.nodes) - prefix_len,
        records=records,
        entering_local=entering,
        counters=search.counters.as_dict(),
        new_vecs=tree.store.vecs_since(store_mark),
    )


# -- worker process ----------------------------------------------------------


def _worker_main(task_queue, result_queue, epoch) -> None:
    """Helper-process loop: steal tasks, reply (claimed / done / error)."""
    from repro.cache import disable_in_subprocess
    from repro.scheduling.parallel import _materialise

    # cache traffic is the parent's job (one process, no sqlite contention)
    disable_in_subprocess()
    while True:
        try:
            task = task_queue.get()
        except (EOFError, OSError):  # pragma: no cover - queue torn down
            return
        if task is None:
            return
        if task.epoch != epoch.value:
            continue  # leftover of a finished search: drop silently
        result_queue.put(("claimed", task.task_id, task.epoch, os.getpid()))
        if task.fault == "die":  # test-only fault injection
            os._exit(17)
        try:
            if task.fault == "raise":  # test-only fault injection
                raise RuntimeError("injected intra-search worker fault")
            worker_net = _materialise(task.fingerprint, task.payload, task.handle)
            options: SchedulerOptions = pickle.loads(task.options_blob)
            outcome = run_subtree_task(
                worker_net.net, task, options, analysis=worker_net.analysis
            )
        except BaseException as exc:
            try:
                result_queue.put(
                    ("error", task.task_id, task.epoch, f"{type(exc).__name__}: {exc}")
                )
            except Exception:  # pragma: no cover - unpicklable exc text
                result_queue.put(("error", task.task_id, task.epoch, "worker error"))
        else:
            result_queue.put(("done", task.task_id, task.epoch, outcome))


# -- the shared pool ---------------------------------------------------------


class _IntraPool:
    """``helpers`` stealing processes around one task + one result queue.

    Pools are shared process-wide per helper count (:func:`_get_pool`) and
    reused across searches -- sources x subtrees share one pool.  A per-pool
    epoch counter invalidates leftover tasks of finished searches: workers
    (and the parent) drop envelopes whose epoch is stale.
    """

    def __init__(self, helpers: int):
        context = multiprocessing.get_context()
        self.task_queue = context.Queue()
        self.result_queue = context.Queue()
        self.epoch = context.Value("l", 0, lock=False)
        self.helpers = []
        for _ in range(helpers):
            process = context.Process(
                target=_worker_main,
                args=(self.task_queue, self.result_queue, self.epoch),
                daemon=True,
            )
            process.start()
            self.helpers.append(process)

    def live_helpers(self):
        return [process for process in self.helpers if process.is_alive()]

    def helper_by_pid(self, pid: int):
        for process in self.helpers:
            if process.pid == pid:
                return process
        return None

    def begin_search(self) -> int:
        self.epoch.value += 1
        while True:  # drop messages left over from a previous search
            try:
                self.result_queue.get_nowait()
            except queue_module.Empty:
                return self.epoch.value

    def end_search(self) -> None:
        self.epoch.value += 1

    def close(self) -> None:
        for _ in self.helpers:
            try:
                self.task_queue.put(None)
            except Exception:  # pragma: no cover - queue already broken
                break
        for process in self.helpers:
            process.join(timeout=1.0)
            if process.is_alive():
                process.terminate()
        for q in (self.task_queue, self.result_queue):
            try:
                q.close()
            except Exception:  # pragma: no cover
                pass


_POOLS: Dict[int, _IntraPool] = {}


def _get_pool(helpers: int) -> _IntraPool:
    """The process-wide pool with ``helpers`` live workers (rebuilt if any
    died -- e.g. after a fault-injection test degraded the previous one)."""
    pool = _POOLS.get(helpers)
    if pool is not None:
        if len(pool.live_helpers()) == len(pool.helpers):
            return pool
        pool.close()
        del _POOLS[helpers]
    pool = _IntraPool(helpers)
    _POOLS[helpers] = pool
    return pool


def shutdown_pools() -> None:
    """Tear down every shared intra-search pool (tests, interpreter exit)."""
    for pool in _POOLS.values():
        pool.close()
    _POOLS.clear()


atexit.register(shutdown_pools)


# -- parent-side task bookkeeping -------------------------------------------


class _TaskState:
    """Lifecycle of one published subtree task, parent side."""

    __slots__ = ("task_id", "status", "pid", "outcome", "message")

    def __init__(self, task_id: int):
        self.task_id = task_id
        # published -> claimed -> done | error, then resolved / discarded
        self.status = "published"
        self.pid: Optional[int] = None
        self.outcome: Optional[SubtreeOutcome] = None
        self.message: Optional[str] = None


class IntraSearch(_EPSearch):
    """An ``_EPSearch`` whose per-ECS subtrees are work-stolen by helpers.

    Instantiated by :func:`repro.scheduling.ep.find_schedule` whenever
    ``options.intra_workers > 1``.  Observationally identical to the serial
    search; ``run()`` additionally fills ``SchedulerResult.intra_stats``.
    """

    def __init__(
        self,
        net: PetriNet,
        source: str,
        options: SchedulerOptions,
        analysis: Optional[StructuralAnalysis] = None,
        heuristic=None,
    ):
        super().__init__(net, source, options, analysis=analysis, heuristic=heuristic)
        self._helpers_wanted = max(0, int(options.intra_workers) - 1)
        # forking requires the termination condition to be path-local: every
        # maskable condition depends only on the candidate marking, the path
        # and depths, all of which the detached prefix replays exactly.  A
        # custom non-decomposable condition could inspect node indices, which
        # a detached subtree cannot reproduce -> never fork.
        self._forkable = split_frontier_conditions(self.termination) is not None
        self.stats: Dict[str, object] = {
            "workers": max(1, int(options.intra_workers)),
            "forks": 0,
            "published": 0,
            "stolen_by_workers": 0,
            "parent_detached": 0,
            "inline": 0,
            "invalid_splice": 0,
            "worker_failures": 0,
            "discarded": 0,
            "serial_fallback": None,
        }
        self._pool: Optional[_IntraPool] = None
        self._epoch = 0
        self._tasks: Dict[int, _TaskState] = {}
        self._frames: List[Dict[ECS, int]] = []
        self._task_counter = 0
        self._outstanding = 0
        self._warned_degraded = False
        self._plane = None
        self._fingerprint: Optional[str] = None
        self._handle: Optional[SharedNetHandle] = None
        self._payload: Optional[bytes] = None
        self._options_blob: Optional[bytes] = None
        self._shipped_options: Optional[SchedulerOptions] = None

    # -- lifecycle -----------------------------------------------------------

    def run(self) -> SchedulerResult:
        if self._helpers_wanted == 0:
            return super().run()
        if not self._forkable:
            self.stats["serial_fallback"] = "termination condition not frontier-decomposable"
            result = super().run()
            result.intra_stats = dict(self.stats)
            return result
        try:
            self._setup_transport()
        except Exception as exc:
            self.stats["serial_fallback"] = f"transport setup failed: {exc}"
            result = super().run()
            result.intra_stats = dict(self.stats)
            return result
        try:
            result = super().run()
        finally:
            self._teardown_transport()
        result.intra_stats = dict(self.stats)
        return result

    def _setup_transport(self) -> None:
        # pin the resolved backend / kernel tier like the per-source fan-out
        # does, so every executor runs the coordinator's decision; a detached
        # executor must never itself fork (intra_workers=1)
        resolved_tier = self.options.kernel_tier
        if self.backend == "kernel":
            from repro.petrinet.kernel import resolve_kernel_tier

            resolved_tier = resolve_kernel_tier(self.options.kernel_tier)
        shipped = replace(
            self.options,
            backend=self.backend,
            kernel_tier=resolved_tier,
            intra_workers=1,
        )
        # a custom (maskable) termination condition must survive pickling to
        # be executable in a worker; if it does not, run serially
        options_blob = pickle.dumps(shipped, protocol=pickle.HIGHEST_PROTOCOL)
        fingerprint = structural_fingerprint(self.net)
        plane = acquire_shared_plane(self.net, fingerprint)
        payload = None
        if plane is None:
            # shm unavailable (platform, REPRO_SHM=0, publish failure -- the
            # plane already warned): ship pickled bytes in every envelope
            payload = pickle.dumps(self.net, protocol=pickle.HIGHEST_PROTOCOL)
        pool = _get_pool(self._helpers_wanted)
        self._epoch = pool.begin_search()
        self._pool = pool
        self._plane = plane
        self._fingerprint = fingerprint
        self._handle = plane.handle if plane is not None else None
        self._payload = payload
        self._options_blob = options_blob
        self._shipped_options = shipped

    def _teardown_transport(self) -> None:
        if self._pool is not None:
            self._pool.end_search()  # stragglers see a stale epoch and drop
        if self._plane is not None:
            self._plane.release()
        self._pool = None
        self._plane = None

    # -- the fork/consume seam ----------------------------------------------

    def _run_ecs_loop(
        self,
        v: int,
        target: int,
        non_source: List[ECS],
        source_ecss: List[ECS],
        frontier: Optional[_Frontier],
    ) -> Optional[int]:
        if self._enum_serial:
            # cost-objective enumeration (resuming the search past the first
            # success) is strictly serial by contract: no publishing, no
            # stealing, so the candidate set matches the intra_workers=1
            # search exactly.  Workers never enumerate either -- they enter
            # through _ep_ecs, not run(), even though the shipped options
            # carry objective / candidate_limit.
            return super()._run_ecs_loop(v, target, non_source, source_ecss, frontier)
        frame: Dict[ECS, int] = {}
        if self._pool is not None:
            frame = self._maybe_publish(v, target, list(non_source) + list(source_ecss))
        # a frame is pushed even when empty: _ecs_entering_point must only see
        # THIS node's forked tasks (equal ECS frozensets recur across nodes)
        self._frames.append(frame)
        try:
            return super()._run_ecs_loop(v, target, non_source, source_ecss, frontier)
        finally:
            self._frames.pop()
            for task_id in frame.values():
                state = self._tasks[task_id]
                if state.status not in ("resolved", "discarded"):
                    # serial order early-exited before this ECS's turn: the
                    # serial search never computes it, so the speculative
                    # result is dropped unmerged (late replies are ignored)
                    state.status = "discarded"
                    self.stats["discarded"] += 1
                    self._outstanding -= 1

    def _ecs_entering_point(
        self, ecs: ECS, v: int, target: int, frontier: Optional[_Frontier]
    ) -> Optional[int]:
        frame = self._frames[-1] if self._frames else None
        task_id = frame.get(ecs) if frame else None
        if task_id is None:
            return self._ep_ecs(ecs, v, target, frontier)
        state = self._tasks[task_id]
        outcome = self._obtain(state)
        if outcome is None:
            self._resolve(state, "inline")
            return self._ep_ecs(ecs, v, target, frontier)
        entering = self._splice(outcome, v)
        if entering is _INVALID_SPLICE:
            self._resolve(state, "invalid_splice")
            return self._ep_ecs(ecs, v, target, frontier)
        self._resolve(state, "stolen_by_workers" if state.pid else "parent_detached")
        return entering

    def _maybe_publish(
        self, v: int, target: int, ordered: List[ECS]
    ) -> Dict[ECS, int]:
        if len(ordered) < 2:
            return {}
        live = self._pool.live_helpers()
        if not live:
            return {}
        # the parent is about to descend into ordered[0] itself -- publishing
        # it would only make a worker race the parent for the subtree the
        # parent computes next anyway; offer the *later* candidates instead
        # (the classic "run the first child, steal the rest" split)
        ordered = ordered[1:]
        # the entering-point target always lies on the current DFS path (the
        # recursion only ever passes path ancestors); keep a defensive gate
        target_depth = self.tree.nodes[target].depth
        path = self.tree._path
        if target_depth >= len(path) or path[target_depth] != target:
            return {}
        capacity = OUTSTANDING_PER_HELPER * len(live) - self._outstanding
        if capacity <= 0:
            return {}
        preferred = prefer_disjoint_forks(self.net, ordered)
        chosen = [ordered[index] for index in preferred[:capacity]]
        prefix_tids = tuple(self.tree.nodes[node].tid for node in path[1:])
        frame: Dict[ECS, int] = {}
        envelopes: List[_SubtreeTask] = []
        for ecs in chosen:
            task_id = self._task_counter
            self._task_counter += 1
            fault = _fault_hook(task_id) if _fault_hook is not None else None
            envelopes.append(
                _SubtreeTask(
                    task_id=task_id,
                    epoch=self._epoch,
                    fingerprint=self._fingerprint,
                    handle=self._handle,
                    payload=self._payload,
                    options_blob=self._options_blob,
                    source=self.source,
                    prefix_tids=prefix_tids,
                    target_depth=target_depth,
                    ecs_names=self._sorted_ecs[self._ecs_id_of[ecs]],
                    fault=fault,
                )
            )
            self._tasks[task_id] = _TaskState(task_id)
            frame[ecs] = task_id
        if _publish_order_hook is not None:
            envelopes = list(_publish_order_hook(list(envelopes)))
        for envelope in envelopes:
            self._pool.task_queue.put(envelope)
        self.stats["forks"] += 1
        self.stats["published"] += len(envelopes)
        self._outstanding += len(envelopes)
        return frame

    # -- waiting, stealing, degradation --------------------------------------

    def _obtain(self, state: _TaskState) -> Optional[SubtreeOutcome]:
        """Block until ``state`` resolves; ``None`` means "recompute inline".

        While waiting the parent makes progress: it pulls the needed
        envelope back off the queue if nobody claimed it (then runs it at
        the serial point, the cheapest rung), steals *other* open tasks and
        runs them detached, and watches claimed tasks' workers for death.
        """
        deadline = time.monotonic() + STALL_TIMEOUT
        while True:
            if self._drain_results():
                deadline = time.monotonic() + STALL_TIMEOUT
            if state.status == "done":
                return state.outcome
            if state.status == "error":
                self._warn_degraded(state.message or "worker error")
                return None
            if state.status == "published":
                if self._pull_specific(state):
                    return None  # parent claims it: run inline, serially
            elif state.status == "claimed":
                helper = self._pool.helper_by_pid(state.pid)
                if helper is None or not helper.is_alive():
                    self._warn_degraded(f"worker pid {state.pid} died mid-subtree")
                    return None
            if self._steal_one():
                deadline = time.monotonic() + STALL_TIMEOUT
                continue
            if not self._wait_result(0.02) and time.monotonic() > deadline:
                self._warn_degraded("stalled waiting for a stolen subtree")
                return None

    def _pull_specific(self, state: _TaskState) -> bool:
        """Try to take ``state``'s own unclaimed envelope off the task queue."""
        put_back: List[_SubtreeTask] = []
        found = False
        while True:
            try:
                envelope = self._pool.task_queue.get_nowait()
            except queue_module.Empty:
                break
            if envelope is None or envelope.epoch != self._epoch:
                continue  # stale leftover: drop
            if envelope.task_id == state.task_id:
                found = True
                break
            put_back.append(envelope)
        for envelope in put_back:
            self._pool.task_queue.put(envelope)
        return found

    def _steal_one(self) -> bool:
        """Pull one open task and run it detached in-process (parent steal)."""
        try:
            envelope = self._pool.task_queue.get_nowait()
        except queue_module.Empty:
            return False
        if envelope is None or envelope.epoch != self._epoch:
            return True  # drained a dead envelope: that is progress
        state = self._tasks.get(envelope.task_id)
        if state is None or state.status != "published":
            return True  # discarded or already handled: drained it
        if envelope.fault is not None and self._pool.live_helpers():
            # injected faults simulate *worker* failures; hand the envelope
            # back so a worker (not the parent) actually exercises the path
            self._pool.task_queue.put(envelope)
            return False
        try:
            outcome = run_subtree_task(
                self.net, envelope, self._shipped_options, analysis=self.analysis
            )
        except Exception as exc:  # pragma: no cover - same code as serial
            state.status = "error"
            state.message = f"{type(exc).__name__}: {exc}"
            return True
        state.status = "done"
        state.pid = None
        state.outcome = outcome
        return True

    def _handle_message(self, message) -> None:
        kind, task_id, epoch = message[0], message[1], message[2]
        if epoch != self._epoch:
            return
        state = self._tasks.get(task_id)
        if state is None or state.status in ("resolved", "discarded", "done", "error"):
            return  # late reply for a task the parent already settled
        if kind == "claimed":
            if state.status == "published":
                state.status = "claimed"
                state.pid = message[3]
        elif kind == "done":
            state.status = "done"
            state.outcome = message[3]
        elif kind == "error":
            state.status = "error"
            state.message = message[3]

    def _drain_results(self) -> int:
        processed = 0
        while True:
            try:
                message = self._pool.result_queue.get_nowait()
            except queue_module.Empty:
                return processed
            processed += 1
            self._handle_message(message)

    def _wait_result(self, timeout: float) -> bool:
        try:
            message = self._pool.result_queue.get(timeout=timeout)
        except queue_module.Empty:
            return False
        self._handle_message(message)
        return True

    def _warn_degraded(self, reason: str) -> None:
        self.stats["worker_failures"] = int(self.stats["worker_failures"]) + 1
        if not self._warned_degraded:
            self._warned_degraded = True
            warnings.warn(
                f"intra-search worker degraded ({reason}); completing the "
                "affected subtree(s) inline on the parent",
                RuntimeWarning,
            )

    def _resolve(self, state: _TaskState, how: str) -> None:
        if state.status not in ("resolved", "discarded"):
            self._outstanding -= 1
        state.status = "resolved"
        self.stats[how] = int(self.stats[how]) + 1

    # -- the deterministic merge ---------------------------------------------

    def _splice(self, outcome: SubtreeOutcome, v: int):
        """Replay a detached subtree onto the shared tree, in allocation order.

        Local indices below the prefix length map to the parent's current
        DFS path (the subtree's replayed prefix IS the path root..v); every
        other local index maps to ``offset + (local - prefix_len)`` where
        ``offset`` is the parent tree's next node index -- which makes the
        spliced indices exactly the ones the serial search would have
        allocated, because the parent consumes ECS results in serial order.
        """
        offset = len(self.tree.nodes)
        if offset + outcome.nodes_allocated >= self.options.max_nodes:
            # too close to the node budget: the worker's smaller local
            # indices made ITS budget checks more permissive than the serial
            # search's would have been at these indices; recompute inline so
            # budget-coupled behaviour stays byte-identical
            return _INVALID_SPLICE
        path = self.tree._path  # root..v == the task's replayed prefix
        prefix_len = outcome.prefix_len
        if len(path) != prefix_len or path[-1] != v:
            return _INVALID_SPLICE  # defensive; cannot happen in-order

        def translate(local: int) -> int:
            if local < prefix_len:
                return path[local]
            return offset + (local - prefix_len)

        for parent_local, tid, vec, ecs_choice, equal_local in outcome.records:
            index = self.tree.add_child(translate(parent_local), tid, vec)
            node = self.tree.nodes[index]
            if ecs_choice is not None:
                node.ecs_choice = ecs_choice
            if equal_local is not None:
                node.equal_ancestor = translate(equal_local)
        # re-intern the subtree's store delta (probe markings included) so
        # the final interned_markings total matches the serial search's --
        # interning is idempotent, the admitted sets are equal
        self.tree.store.intern_many(outcome.new_vecs)
        self.counters.merge(SearchCounters(**outcome.counters))
        if outcome.entering_local is None:
            return UNDEF
        return translate(outcome.entering_local)
