"""Determinism matrix of the EP search: one search, any number of times.

Intra-search work stealing is gone -- the scalar walk runs each search on
one core -- and this matrix now pins what its contract left behind: a
search is a pure function of (net, source, options).  Searches repeated
back to back through one shared options object, searches after one aborted
mid-tree, and searches under channel bounds that never bind all reproduce
the serial result byte for byte -- the canonical schedule, its
fingerprint, the tree shape and every :class:`SearchCounters` field.  The
corpus sample runs the whole-search oracle of :mod:`fold_oracle`.

The golden nets and the corpus never backtrack (the invariant heuristic's
first candidate always wins); :func:`make_backtracking_net` is the
adversarial complement: a net whose heuristically-first ECS is a
drain-first *trap* that dead-ends, forcing the search to abandon a fully
explored subtree.

The test names are kept from the worker-count matrix of the deleted
intra-search stealing, so the test IDs stay stable.
"""

from __future__ import annotations

import itertools
import random
import sys
from dataclasses import fields

import pytest

from fold_oracle import searched_and_walked
from golden_nets import GOLDEN_CASES
from repro.corpus.generator import generate_corpus
from repro.corpus.topologies import build_case
from repro.flowc.linker import link
from repro.petrinet.analysis import StructuralAnalysis
from repro.petrinet.net import PetriNet, SourceKind
from repro.scheduling.ep import (
    SchedulerOptions,
    SchedulerResult,
    SearchCounters,
    _EPSearch,
    find_all_schedules,
    find_schedule,
)
from repro.scheduling.serialize import (
    result_to_record,
    schedule_fingerprint,
    schedule_to_json,
)
from test_kernel import saturated_pipeline

#: how many back-to-back searches each matrix cell runs
WORKER_MATRIX = (1, 2, 4, 8)

#: the 50-seed corpus the sample is drawn from (generation is prefix-stable,
#: so these specs are the same ones every other corpus consumer sees)
CORPUS_SIZE = 50
CORPUS_SEED = 20260808
#: deterministic sample strides: every 5th spec runs the oracle, every 12th
#: additionally the repeated-search matrix at {4, 8}
SAMPLE_STRIDE = 5
DEEP_SAMPLE_STRIDE = 12


def result_identity(result):
    """Everything that must be byte-identical between equivalent searches."""
    return (
        schedule_to_json(result.schedule) if result.schedule else None,
        schedule_fingerprint(result.schedule) if result.schedule else None,
        result.tree_nodes,
        result.failure_reason,
        result.counters.as_dict(),
    )


def repeated_identity(net, source, searches, baseline):
    """Run ``searches`` searches through one shared options object."""
    shared = SchedulerOptions()
    for _ in range(searches):
        result = find_schedule(net, source, options=shared)
        assert result_identity(result) == baseline


def make_backtracking_net(stages: int = 2, trap_depth: int = 4) -> PetriNet:
    """A net whose heuristically-first ECS always dead-ends.

    Per stage, the source tokens ``pA``/``pB`` enable two ECSs: ``t_trap``
    consumes both and produces one (token delta -1, so the drain-first
    tie-break orders it *first*), walks a ``trap_depth`` chain and hands the
    tokens straight back -- its only entering point is the forking node
    itself, which EP rejects, so the trap subtree fails after being fully
    explored.  ``u_route``/``v_join`` is the real route and chains into the
    next stage.  The trap cycle is covered by a T-invariant, so the
    irrelevance criterion cannot prune it early.
    """
    net = PetriNet(name=f"backtrack_{stages}x{trap_depth}")
    for i in range(stages):
        for place in (f"pA{i}", f"pB{i}", f"pW{i}"):
            net.add_place(place)
        for d in range(trap_depth):
            net.add_place(f"pT{i}_{d}")
    for i in range(stages):
        net.add_transition(f"t_trap{i}")
        net.add_arc(f"pA{i}", f"t_trap{i}")
        net.add_arc(f"pB{i}", f"t_trap{i}")
        net.add_arc(f"t_trap{i}", f"pT{i}_0")
        for d in range(trap_depth - 1):
            net.add_transition(f"t_step{i}_{d}")
            net.add_arc(f"pT{i}_{d}", f"t_step{i}_{d}")
            net.add_arc(f"t_step{i}_{d}", f"pT{i}_{d+1}")
        net.add_transition(f"t_back{i}")
        net.add_arc(f"pT{i}_{trap_depth-1}", f"t_back{i}")
        net.add_arc(f"t_back{i}", f"pA{i}")
        net.add_arc(f"t_back{i}", f"pB{i}")
        net.add_transition(f"u_route{i}")
        net.add_arc(f"pA{i}", f"u_route{i}")
        net.add_arc(f"u_route{i}", f"pW{i}")
        net.add_transition(f"v_join{i}")
        net.add_arc(f"pW{i}", f"v_join{i}")
        net.add_arc(f"pB{i}", f"v_join{i}")
        if i + 1 < stages:
            net.add_arc(f"v_join{i}", f"pA{i+1}")
            net.add_arc(f"v_join{i}", f"pB{i+1}")
    net.add_transition("src", source_kind=SourceKind.UNCONTROLLABLE)
    net.add_arc("src", "pA0")
    net.add_arc("src", "pB0")
    return net


# ---------------------------------------------------------------------------
# golden-net matrix
# ---------------------------------------------------------------------------


def _golden_params():
    return [
        pytest.param(net_name, source, id=f"{net_name}-{source}")
        for net_name, (_builder, sources) in sorted(GOLDEN_CASES.items())
        for source in sources
    ]


class TestGoldenMatrix:
    @pytest.mark.parametrize(("net_name", "source"), _golden_params())
    def test_worker_counts_are_byte_identical(self, net_name, source):
        builder, _sources = GOLDEN_CASES[net_name]
        net = builder()
        baseline = result_identity(find_schedule(net, source))
        for searches in WORKER_MATRIX:
            repeated_identity(net, source, searches, baseline)

    def test_serial_path_records_no_intra_stats(self):
        """A result carries no per-worker statistics: there are no workers."""
        builder, sources = GOLDEN_CASES["figure_5"]
        result = find_schedule(builder(), sources[0])
        assert "intra_stats" not in {f.name for f in fields(SchedulerResult)}
        assert not hasattr(result, "intra_stats")


# ---------------------------------------------------------------------------
# corpus sample
# ---------------------------------------------------------------------------


def _corpus_sample(stride):
    specs = generate_corpus(CORPUS_SIZE, seed=CORPUS_SEED)
    return [
        pytest.param(index, id=f"seed{CORPUS_SEED}-{index}-{specs[index].family}")
        for index in range(0, CORPUS_SIZE, stride)
    ]


def _corpus_net(index):
    spec = generate_corpus(CORPUS_SIZE, seed=CORPUS_SEED)[index]
    case = build_case(spec)
    return link(case.network).net, case.manifest["source_transitions"]


class TestCorpusSample:
    @pytest.mark.parametrize("index", _corpus_sample(SAMPLE_STRIDE))
    def test_two_workers_identical(self, index):
        net, sources = _corpus_net(index)
        for source in sources:
            searched_and_walked(net, source)

    @pytest.mark.parametrize("index", _corpus_sample(DEEP_SAMPLE_STRIDE))
    @pytest.mark.parametrize("searches", (4, 8))
    def test_deep_matrix_identical(self, index, searches):
        net, sources = _corpus_net(index)
        for source in sources:
            baseline = result_identity(find_schedule(net, source))
            repeated_identity(net, source, searches, baseline)


# ---------------------------------------------------------------------------
# backtracking: the abandoned subtree is really explored
# ---------------------------------------------------------------------------


class TestBacktrackingConsumption:
    def test_matrix_on_backtracking_net(self):
        net = make_backtracking_net(stages=2, trap_depth=4)
        search = _EPSearch(net, "src", SchedulerOptions())
        result = search.run()
        assert result.success
        # the trap was fired and explored, then abandoned for the real route
        fired = {node.transition for node in search.tree.nodes}
        scheduled = {t for node in result.schedule.nodes for t in node.edges}
        assert {"t_trap0", "t_back0"} <= fired
        assert not {"t_trap0", "t_trap1"} & scheduled
        assert result_identity(searched_and_walked(net, "src")) == result_identity(result)
        baseline = result_identity(result)
        for searches in WORKER_MATRIX:
            repeated_identity(net, "src", searches, baseline)

    def test_steal_order_shuffle_is_identity(self):
        """Bounds that never bind change nothing: channel bounds of 1,000
        declared on any shuffled subset of the places give the default
        result, on the search and on its walked twin."""
        baseline = result_identity(find_schedule(make_backtracking_net(3, 3), "src"))
        rng = random.Random(0xC0DAC)
        for trial in range(6):
            net = make_backtracking_net(stages=3, trap_depth=3)
            places = sorted(net.places)
            for place in rng.sample(places, rng.randrange(1, len(places))):
                net.places[place].bound = 1_000
            result = searched_and_walked(net, "src")
            assert result_identity(result) == baseline, f"shuffle trial {trial}"

    def test_node_budget_coupling_recomputes_inline(self):
        # budgets around the serial tree size: the budget bites exactly below
        # it, and the search and its walked twin agree on every side
        net = make_backtracking_net(stages=2, trap_depth=4)
        serial = find_schedule(net, "src")
        for budget in (serial.tree_nodes - 1, serial.tree_nodes, serial.tree_nodes + 2):
            result = searched_and_walked(net, "src", max_nodes=budget)
            if budget >= serial.tree_nodes:
                assert result_identity(result) == result_identity(serial)
            else:
                assert not result.success


# ---------------------------------------------------------------------------
# an aborted search leaves nothing behind
# ---------------------------------------------------------------------------


class _FailsAfter(_EPSearch):
    """A search whose pruning check raises on its 12th verdict."""

    calls = 12

    def _prunes(self, *args) -> bool:
        self.calls -= 1
        if self.calls <= 0:
            raise RuntimeError("pruning check failed mid-search")
        return super()._prunes(*args)


class TestFaultInjection:
    def test_search_after_worker_death_recovers(self):
        net = make_backtracking_net(stages=2, trap_depth=4)
        baseline = result_identity(find_schedule(net, "src"))
        analysis = StructuralAnalysis.of(net)
        limit = sys.getrecursionlimit()
        with pytest.raises(RuntimeError, match="failed mid-search"):
            _FailsAfter(net, "src", SchedulerOptions()).run()
        # the raised recursion limit was restored on the way out, and the
        # next search of the same net, through the same memoised analysis,
        # comes back clean
        assert sys.getrecursionlimit() == limit
        result = find_schedule(net, "src")
        assert StructuralAnalysis.of(net) is analysis
        assert result_identity(result) == baseline


# ---------------------------------------------------------------------------
# counters: aggregate permutation invariance, no exempt counters
# ---------------------------------------------------------------------------


class TestCounterMerge:
    def _subtree_counters(self):
        rng = random.Random(7)
        parts = []
        for _ in range(5):
            counters = SearchCounters()
            for field in counters.as_dict():
                setattr(counters, field, rng.randrange(100))
            parts.append(counters)
        return parts

    def test_any_merge_permutation_same_aggregate(self):
        parts = self._subtree_counters()
        expected = SearchCounters.aggregate(parts).as_dict()
        for perm in itertools.permutations(parts):
            assert SearchCounters.aggregate(perm).as_dict() == expected
            # pairwise left-fold merge
            total = SearchCounters()
            for item in perm:
                total.merge(item)
            assert total.as_dict() == expected

    def test_backend_only_counters_stay_excluded(self):
        """No counter is exempt from comparison any more: every field is
        compared, and matches, between the search and its walked twin."""
        assert not hasattr(SearchCounters, "BACKEND_ONLY")
        builder, sources = GOLDEN_CASES["pfc_4x5"]
        result = searched_and_walked(builder(), sources[0])
        assert set(result.counters.as_dict()) == {f.name for f in fields(SearchCounters)}


# ---------------------------------------------------------------------------
# wiring: caches, serve whitelist, per-source composition
# ---------------------------------------------------------------------------


class TestWiring:
    def test_result_record_never_carries_intra_stats(self):
        """The cache/wire record carries the result, its accounting and
        nothing process-local."""
        net = make_backtracking_net(stages=2, trap_depth=3)
        record = result_to_record(find_schedule(net, "src"))
        assert set(record) == {
            "schedule",
            "tree_nodes",
            "elapsed_seconds",
            "failure_reason",
            "counters",
        }

    def test_serve_whitelist_accepts_and_validates_intra_workers(self):
        """The wire's bounded integer option is validated, not coerced."""
        from repro.serve.protocol import MAX_WIRE_NODES, ProtocolError, options_from_dict

        options = options_from_dict({"max_nodes": 4})
        assert options.max_nodes == 4
        for bad in (0, -1, MAX_WIRE_NODES + 1, "2", True, 2.0):
            with pytest.raises(ProtocolError):
                options_from_dict({"max_nodes": bad})

    def test_find_all_schedules_composes_sequentially(self):
        # the multi-source entry point is the plain per-source loop, in
        # source order, byte for byte
        builder, _sources = GOLDEN_CASES["figure_5"]
        net = builder()
        combined = find_all_schedules(net)
        assert list(combined) == net.uncontrollable_sources()
        for source, result in combined.items():
            single = find_schedule(builder(), source)
            assert result_identity(result) == result_identity(single)

    def test_pool_is_reused_across_searches(self):
        """Searches share the structural analysis, never a checker: each
        search builds its own incremental checker from the analysis's place
        degrees, so its op counters describe that search alone."""
        net = saturated_pipeline(6)
        options = SchedulerOptions()
        first = _EPSearch(net, "src", options)
        first_result = first.run()
        checked = first._incremental.children_checked
        assert checked > 0
        second = _EPSearch(net, "src", options)
        second_result = second.run()
        assert second.analysis is first.analysis is StructuralAnalysis.of(net)
        assert second._incremental is not first._incremental
        assert second._incremental.children_checked == checked
        assert result_identity(second_result) == result_identity(first_result)
