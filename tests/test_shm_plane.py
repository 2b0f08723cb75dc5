"""Shipping a net and its analysis: a transport is never a semantics change.

The shared-memory plane that published a net's dense analysis to worker
processes is gone with the process pool.  What stays of its contract is
what any consumer of a net relies on when the net, or its analysis, comes
from somewhere else:

* the sparse firing rows (``consume``, ``delta``) live once per structural
  snapshot -- shared and immutable, never copied -- and rows borrowed from a
  snapshot outlive it;
* a net shipped as a pickle or in the serve wire form schedules byte for
  byte like the original, on every golden net;
* a stale or foreign :class:`StructuralAnalysis` handed to a search is
  never read: the search reads the analysis memoised on the live net's
  snapshot, never mixing another snapshot's ID space into it;
* the daemon's record cache evicts in LRU order, and an evicted entry is
  simply searched again.

The test names are kept from the deleted shared-memory plane's suite, so
the test IDs stay stable.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from golden_nets import GOLDEN_CASES
from repro.apps import paper_nets
from repro.petrinet.analysis import StructuralAnalysis
from repro.petrinet.invariants import incidence_matrix
from repro.scheduling.ep import find_all_schedules, find_schedule
from repro.scheduling.serialize import schedule_fingerprint, schedule_to_json
from repro.serve import SchedulingService
from repro.serve.protocol import ProtocolError, net_from_dict, net_to_dict
from service_path import schedule_through, without_clock

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _signature(results):
    return {
        source: (
            (
                schedule_to_json(result.schedule),
                schedule_fingerprint(result.schedule),
            )
            if result.schedule is not None
            else result.failure_reason,
            result.tree_nodes,
            result.counters.as_dict(),
        )
        for source, result in results.items()
    }


# ---------------------------------------------------------------------------
# the firing rows of one snapshot
# ---------------------------------------------------------------------------


def test_publish_attach_is_zero_copy_and_read_only():
    """One snapshot per structural version, its rows immutable tuples that
    hold exactly the net's arcs: ``consume`` the input weights, ``delta``
    the incidence matrix."""
    net = paper_nets.figure_5()
    inet = net.indexed()
    assert net.indexed() is inet  # cached on the net, never rebuilt or copied
    incidence, places, transitions = incidence_matrix(net)
    assert (places, transitions) == (list(inet.place_names), list(inet.transition_names))
    for rows, weight in (
        (inet.consume, lambda pid, tid: net.weight_pt(places[pid], transitions[tid])),
        (inet.delta, lambda pid, tid: incidence[pid][tid]),
    ):
        assert isinstance(rows, tuple) and all(isinstance(row, tuple) for row in rows)
        with pytest.raises(TypeError):
            rows[0] = ()
        dense = {(pid, tid): value for tid, row in enumerate(rows) for pid, value in row}
        for tid in range(len(transitions)):
            for pid in range(len(places)):
                assert dense.get((pid, tid), 0) == weight(pid, tid)


def test_close_with_escaped_view_defers_the_unmap():
    """Rows borrowed from a snapshot stay readable after the net drops that
    snapshot; the next snapshot builds its own, equal rows."""
    net = paper_nets.figure_5()
    escaped = net.indexed().consume
    reference = [list(row) for row in escaped]
    net.invalidate_caches()
    fresh = net.indexed().consume
    assert fresh is not escaped
    assert [list(row) for row in escaped] == reference
    assert [list(row) for row in fresh] == reference


# ---------------------------------------------------------------------------
# a shipped net schedules identically
# ---------------------------------------------------------------------------


def test_attached_net_schedules_identically():
    """A pickled copy, its sources sharing the one analysis memoised on its
    snapshot, schedules like the original."""
    net = paper_nets.figure_6()
    copy = pickle.loads(pickle.dumps(net, protocol=pickle.HIGHEST_PROTOCOL))
    analysis = StructuralAnalysis.of(copy)
    for source in net.uncontrollable_sources():
        original = find_schedule(net, source)
        shipped = find_schedule(copy, source)
        assert StructuralAnalysis.of(copy) is analysis
        assert schedule_to_json(original.schedule) == schedule_to_json(shipped.schedule)
        assert original.counters.as_dict() == shipped.counters.as_dict()
        assert original.tree_nodes == shipped.tree_nodes


@pytest.mark.parametrize("net_name", sorted(GOLDEN_CASES))
def test_golden_nets_identical_over_shared_plane(net_name):
    """Serial == serve wire form == pickle on each golden net."""
    builder, _sources = GOLDEN_CASES[net_name]
    net = builder()
    serial = _signature(find_all_schedules(net))
    for shipped in (
        net_from_dict(net_to_dict(net)),
        pickle.loads(pickle.dumps(net, protocol=pickle.HIGHEST_PROTOCOL)),
    ):
        assert _signature(find_all_schedules(shipped)) == serial


def test_workers_one_skips_the_plane():
    """A search, in a fresh interpreter, loads no process or shared-memory
    machinery at all."""
    code = (
        "import sys\n"
        "from repro.apps import paper_nets\n"
        "from repro.scheduling.ep import find_all_schedules\n"
        "results = find_all_schedules(paper_nets.figure_5())\n"
        "assert all(r.success for r in results.values())\n"
        "print(sorted(m for m in sys.modules if m.startswith("
        "('multiprocessing', 'concurrent.futures'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# a stale or foreign analysis is never read
# ---------------------------------------------------------------------------


def _identity(result):
    return (
        schedule_to_json(result.schedule) if result.schedule else result.failure_reason,
        result.tree_nodes,
        result.counters.as_dict(),
    )


def test_refcounted_unlink_and_stale_attach():
    """A structural mutation drops the net's snapshot; a search handed the
    analysis of the dropped snapshot reads the live one's instead."""
    net = paper_nets.figure_4a()
    stale = StructuralAnalysis.of(net)
    old = net.indexed()
    net.add_place("extra")
    assert net.indexed() is not old and StructuralAnalysis.of(net) is not stale
    assert len(net.indexed().place_names) == len(old.place_names) + 1
    result = find_schedule(net, "a", analysis=stale)
    assert result.success
    assert _identity(result) == _identity(find_schedule(net, "a"))


def test_stale_block_name_falls_back_to_pickle():
    """An analysis of an invalidated snapshot is not trusted, even when the
    structure did not change: the search builds a new one and agrees."""
    net = paper_nets.figure_5()
    stale = StructuralAnalysis.of(net)
    reference = find_schedule(net, "a", analysis=stale)
    net.invalidate_caches()
    assert StructuralAnalysis.of(net) is not stale
    assert _identity(find_schedule(net, "a", analysis=stale)) == _identity(reference)


def test_fingerprint_mismatch_falls_back_to_pickle():
    """An analysis of a different net is never applied to this one."""
    net = paper_nets.figure_5()
    foreign = StructuralAnalysis.of(paper_nets.figure_6())
    result = find_schedule(net, "a", analysis=foreign)
    assert _identity(result) == _identity(find_schedule(paper_nets.figure_5(), "a"))


def test_materialise_without_payload_or_handle_raises():
    """Materialising a shipped net from nothing, or from entries missing
    their names, is refused, not guessed."""
    for payload in (None, [], "net", {"places": [{"tokens": 1}]}, {"arcs": [["p"]]}):
        with pytest.raises(ProtocolError) as excinfo:
            net_from_dict(payload)
        assert excinfo.value.kind == "bad-net"


# ---------------------------------------------------------------------------
# record-cache LRU: eviction order, and an evicted entry is searched again
# ---------------------------------------------------------------------------


def test_worker_lru_eviction_detaches_attachments():
    builders = [
        paper_nets.figure_4a,
        paper_nets.figure_4b,
        paper_nets.figure_5,
        paper_nets.figure_6,
        paper_nets.figure_8,
    ]
    service = SchedulingService(l1_capacity=4)
    assert len(builders) > 4
    first = [schedule_through(service, builder(), "a") for builder in builders]
    assert all(origin == "search" for _record, origin in first)
    # capacity exceeded by one: the first entry was evicted, the last stays
    assert schedule_through(service, builders[-1](), "a")[1] == "l1"
    again, origin = schedule_through(service, builders[0](), "a")
    assert origin == "search"
    assert without_clock(again) == without_clock(first[0][0])
