"""Differential harness for the EP search: the search vs its walked twin.

The scalar walk is the only EP search.  Its equivalence contract is the
whole-search oracle of :mod:`fold_oracle`: for any net and any options, the
search on the incremental irrelevance checker and the same search deciding
Definition 4.5 by the exact walk over the DFS path
(:class:`fold_oracle.WalkedSearch`) produce the same canonical schedule
(byte-identical under :func:`schedule_to_json`), the same failure reason,
the same tree and the same :class:`SearchCounters`.

This module enforces the contract three ways:

* a seeded sweep over 200+ generated nets (marked graphs, choice diamonds,
  multi-source rings), and unschedulable corpus specs, the only nets here
  on which the criterion prunes (one at tier 1, twenty in the ``slow``
  sweep);
* edge cases the generators are unlikely to hit: nodes with nothing
  enabled, one-place nets, bound-saturated children, all-irrelevant trees,
  token counts beyond int64;
* unit tests of the reachability sweep (exact past int64, empty inputs),
  of Definition 4.5 on deep paths (against the row rule
  :func:`fold_oracle.irrelevance_mask`), and of the option surface.

The test names are kept from the scalar/batched/kernel backend harness
this oracle replaced, so the test IDs stay stable.
"""

from __future__ import annotations

import random
import tracemalloc
import warnings
from collections import Counter

import pytest

from fold_oracle import (
    irrelevance_mask,
    observables,
    searched_and_walked,
    walked_pair,
)
from repro.apps.workloads import (
    random_choice_net,
    random_marked_graph,
    random_multi_source_net,
)
from repro.corpus.generator import make_unschedulable_spec
from repro.corpus.topologies import build_network
from repro.flowc.linker import link
from repro.petrinet.net import PetriNet, SourceKind
from repro.petrinet.reachability import build_reachability_graph, is_bounded
from repro.scheduling.ep import (
    SchedulerOptions,
    SearchCounters,
    _EPSearch,
    find_all_schedules,
    find_schedule,
)
from repro.scheduling.termination import IncrementalIrrelevance, witnessed_by
from repro.serve.protocol import ProtocolError, options_from_dict

# ---------------------------------------------------------------------------
# differential sweep (>= 200 generated nets)
# ---------------------------------------------------------------------------

FUZZ_CASES = (
    [("choice", seed) for seed in range(80)]
    + [("marked_graph", seed) for seed in range(80)]
    + [("multi_source", seed) for seed in range(40)]
)


def build_fuzz_net(kind: str, seed: int) -> PetriNet:
    rng = random.Random(seed)
    if kind == "choice":
        return random_choice_net(1 + seed % 4, rng=rng)
    if kind == "marked_graph":
        return random_marked_graph(2 + seed % 7, rng=rng)
    assert kind == "multi_source"
    return random_multi_source_net(1 + seed % 3, 3, rng=rng)


def test_fuzz_sweep_covers_at_least_200_nets():
    assert len(FUZZ_CASES) >= 200


@pytest.mark.parametrize("kind,seed", FUZZ_CASES)
def test_differential_fuzz_scalar_vs_batched(kind, seed):
    net = build_fuzz_net(kind, seed)
    for source in net.uncontrollable_sources():
        searched_and_walked(net, source, max_nodes=600)


def test_fuzz_sweep_exercises_the_batched_and_kernel_paths():
    """The generated nets must really run both sides of the oracle: the
    search on its incremental irrelevance checker, the twin on the walk."""
    incremental_runs = 0
    walked_verdicts = 0
    successes = 0
    for kind, seed in FUZZ_CASES[::7]:
        net = build_fuzz_net(kind, seed)
        for source in net.uncontrollable_sources():
            search, result, walked = walked_pair(net, source, max_nodes=600)
            incremental_runs += search._incremental.children_checked > 0
            walked_verdicts += walked.irrelevant_verdicts + walked.relevant_verdicts
            successes += result.success
    assert incremental_runs > 0
    assert walked_verdicts > 0
    assert successes > 0


def test_differential_on_an_unschedulable_paper_net():
    """Failures must be identical too (reason, tree size, counters)."""
    from repro.apps import paper_nets

    result = searched_and_walked(paper_nets.figure_4b(), "a", max_nodes=5000)
    assert not result.success


def _unschedulable_corpus_net(seed):
    return link(build_network(make_unschedulable_spec(seed))).net


def _irrelevant_verdicts(net, max_nodes, **options):
    """The walked twin's irrelevant verdicts over every source of ``net``."""
    return sum(
        walked_pair(net, source, max_nodes=max_nodes, **options)[2].irrelevant_verdicts
        for source in net.uncontrollable_sources()
    )


def test_the_oracle_compares_irrelevant_verdicts():
    """The criterion prunes only on unschedulable nets: the 200-net sweep
    and the schedulable corpus never meet an irrelevant marking, so the
    oracle compares a ``True`` verdict on the Figure 4b corpus spec of the
    benchmark's seed, searched up to 500 nodes."""
    assert _irrelevant_verdicts(_unschedulable_corpus_net(20260808), 500) > 0


@pytest.mark.slow
@pytest.mark.parametrize("use_invariant_heuristic", [True, False])
def test_walked_oracle_on_twenty_unschedulable_corpus_specs(use_invariant_heuristic):
    """The long sweep where pruning happens: twenty Figure 4b corpus specs,
    each searched up to 2,000 nodes by the search and its walked twin,
    under both rank keys (probe pruning feeds the key in either)."""
    verdicts = [
        _irrelevant_verdicts(
            _unschedulable_corpus_net(20260808 + index),
            2000,
            use_invariant_heuristic=use_invariant_heuristic,
        )
        for index in range(20)
    ]
    assert all(count > 0 for count in verdicts), verdicts


def test_differential_find_all_schedules_merged_counters():
    """Multi-source nets: ``find_all_schedules``' per-source results, and
    their merged counters, equal the oracle's searches."""
    for seed in (3, 11, 27):
        net = random_multi_source_net(3, 3, seed=seed)
        results = find_all_schedules(net, options=SchedulerOptions(max_nodes=600))
        assert list(results) == net.uncontrollable_sources()
        oracle = {
            source: searched_and_walked(net, source, max_nodes=600)
            for source in results
        }
        for source, result in results.items():
            assert observables(result) == observables(oracle[source])
        merged = SearchCounters.aggregate(r.counters for r in results.values())
        expected = SearchCounters.aggregate(r.counters for r in oracle.values())
        assert merged.as_dict() == expected.as_dict()
        assert merged.nodes_expanded > 0


# ---------------------------------------------------------------------------
# edge cases
# ---------------------------------------------------------------------------


def _starved_net(bound=None) -> PetriNet:
    """One source event is not enough to enable anything downstream.

    ``bound`` is the channel bound the specification declares on ``p``.
    """
    net = PetriNet(name="starved")
    net.add_transition("src", source_kind=SourceKind.UNCONTROLLABLE)
    net.add_place("p", bound=bound)
    net.add_arc("src", "p")
    net.add_transition("t")
    net.add_arc("p", "t", 2)  # needs two tokens; one event provides one
    return net


def test_empty_frontier_backtracks_identically():
    """The child of the first source firing has nothing enabled.

    The search must backtrack out of it and recover by deferring to a second
    source event (two await nodes).
    """
    result = searched_and_walked(_starved_net(), "src", max_nodes=50)
    assert result.success
    assert len(result.schedule.await_nodes()) == 2


def test_empty_frontier_with_banned_source_refire_fails_identically():
    """Declaring p a one-token channel forbids the recovery: EP fails
    outright, and a bound of the specification names no pruning."""
    result = searched_and_walked(_starved_net(bound=1), "src", max_nodes=50)
    assert not result.success
    assert result.failure_reason == (
        "no entering point reaching the initial marking was found"
    )


def test_single_place_single_transition_net():
    net = PetriNet(name="tiny")
    net.add_transition("src", source_kind=SourceKind.UNCONTROLLABLE)
    net.add_place("p")
    net.add_transition("t")
    net.add_arc("src", "p")
    net.add_arc("p", "t")
    assert searched_and_walked(net, "src", max_nodes=600).success


def test_every_child_violates_the_configured_bound():
    """A zero place bound prunes every child at every node, and the failure
    names the bound."""
    net = random_choice_net(2, seed=5)
    result = searched_and_walked(net, "src", max_nodes=200, place_bound=0)
    assert not result.success
    assert result.failure_reason.startswith("pre-defined place bound (0 tokens per place)")


def test_all_irrelevant_frontier():
    """Every expansion grows only saturated places: the whole tree is pruned."""
    net = PetriNet(name="growing")
    net.add_transition("src", source_kind=SourceKind.UNCONTROLLABLE)
    net.add_place("p")
    net.add_place("q")
    net.add_transition("t")
    net.add_arc("src", "p")
    net.add_arc("p", "t")
    net.add_arc("t", "p")  # keeps p marked: t's child covers its parent
    net.add_arc("t", "q")  # and grows q, whose degree is already saturated
    # no T-invariant fires src (tokens only accumulate); the tie-break
    # heuristic runs no invariant precheck, so the search -- and its
    # irrelevance pruning -- runs
    _search, result, walked = walked_pair(
        net,
        "src",
        max_nodes=100,
        use_invariant_heuristic=False,
    )
    assert not result.success
    assert result.counters.nodes_expanded > 0
    assert walked.irrelevant_verdicts > 0


def test_int64_guard_falls_back_to_exact_scalar_arithmetic():
    """Markings are Python ints: counts around 2**64 fire and compare exactly.

    The search needs no int64 guard, and neither does the reachability
    sweep: :func:`test_expand_children_dtype_guard_raises` pins it.
    """
    net = PetriNet(name="huge_tokens")
    net.add_transition("src", source_kind=SourceKind.UNCONTROLLABLE)
    net.add_place("p")
    net.add_place("q")
    net.add_place("r", 2**64)
    net.add_transition("take")
    net.add_transition("give")
    net.add_arc("src", "p")
    net.add_arc("p", "take")
    net.add_arc("r", "take")
    net.add_arc("take", "q")
    net.add_arc("q", "give")
    net.add_arc("give", "r")
    result = searched_and_walked(net, "src", max_nodes=100)
    assert result.success
    counts = {node.marking["r"] for node in result.schedule.nodes}
    assert counts == {2**64, 2**64 - 1}


# ---------------------------------------------------------------------------
# the reachability sweep: exact past int64, and on empty inputs
# ---------------------------------------------------------------------------


def _one_place_net(tokens: int) -> PetriNet:
    net = PetriNet(name="overflow_unit")
    net.add_place("p", tokens)
    net.add_transition("t")
    net.add_arc("p", "t")
    return net


def test_expand_children_dtype_guard_raises():
    """The scalar sweep and ``is_bounded`` are exact past 2**63: markings are
    Python ints, so counts beyond int64 fire and compare without wrapping."""
    graph = build_reachability_graph(_one_place_net(2**64 + 1), max_nodes=3)
    assert [m["p"] for m in graph.markings] == [2**64 + 1, 2**64, 2**64 - 1]
    assert not is_bounded(_one_place_net(2**63), bound=2**63 - 1, max_nodes=3)
    kept = PetriNet(name="kept")  # one marking, 2**63 tokens, fired in place
    kept.add_place("p", 2**63)
    kept.add_transition("t")
    kept.add_arc("p", "t")
    kept.add_arc("t", "p")
    assert [m["p"] for m in build_reachability_graph(kept).markings] == [2**63]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # complete, so exact: no warning
        assert is_bounded(kept, bound=2**63)
        assert not is_bounded(kept, bound=2**63 - 1)


def test_expand_children_empty_frontier_shapes():
    """Empty inputs: the row rule over no rows decides nothing, and a sweep
    whose only marking enables nothing stops there, complete."""
    assert irrelevance_mask([], (0,), (0,)) == []
    graph = build_reachability_graph(_one_place_net(0))
    assert graph.complete and graph.markings == [_one_place_net(0).initial_marking]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert is_bounded(_one_place_net(0), bound=0)


# ---------------------------------------------------------------------------
# the option surface: which path a search runs on
# ---------------------------------------------------------------------------


def test_unsupported_termination_condition_forces_scalar():
    """A termination condition is no longer an option: naming one is refused
    in process and on the serve wire, so no search leaves its one pruning
    path, and the two pruning strategies are plain data (``place_bound``)."""
    with pytest.raises(TypeError):
        SchedulerOptions(termination=None)
    with pytest.raises(ProtocolError) as excinfo:
        options_from_dict({"termination": "irrelevance"})
    assert excinfo.value.kind == "bad-options"
    net = random_choice_net(2, seed=1)
    for place_bound in (None, 3):
        search = _EPSearch(net, "src", SchedulerOptions(place_bound=place_bound))
        assert (search._incremental is None) == (place_bound is not None)


def test_unknown_backend_is_rejected():
    """The backend knob is gone: naming it is an unknown option, rejected
    rather than silently ignored, in process and on the serve wire."""
    with pytest.raises(TypeError):
        SchedulerOptions(backend="vectorised")
    with pytest.raises(ProtocolError) as excinfo:
        options_from_dict({"backend": "vectorised"})
    assert excinfo.value.kind == "bad-options"


def test_auto_resolves_to_scalar_for_default_options():
    """Default options prune by the irrelevance criterion, on the
    incremental checker."""
    net = random_choice_net(2, seed=2)
    search = _EPSearch(net, "src", SchedulerOptions())
    assert search._incremental is not None
    result = search.run()
    assert observables(result) == observables(find_schedule(net, "src"))
    assert observables(result) == observables(searched_and_walked(net, "src"))


# ---------------------------------------------------------------------------
# Definition 4.5 on deep paths
# ---------------------------------------------------------------------------


def _random_rows(rng, count, n_places, high):
    return [tuple(rng.randrange(high) for _ in range(n_places)) for _ in range(count)]


def _random_irrelevance_inputs(n_children, depth, n_places, seed):
    rng = random.Random(seed)
    children = _random_rows(rng, n_children, n_places, 4)
    ancestors = _random_rows(rng, depth, n_places, 4)
    # plant some guaranteed-irrelevant pairs: child == ancestor + growth on a
    # place the ancestor already saturates (degree 0 means always saturated)
    degrees = tuple(rng.randrange(3) for _ in range(n_places))
    for child in range(0, n_children, 7):
        ancestor = ancestors[child % depth]
        saturated = [p for p in range(n_places) if ancestor[p] >= degrees[p]]
        if saturated:
            grown = list(ancestor)
            grown[saturated[0]] += 1
            children[child] = tuple(grown)
    return children, ancestors, degrees


def _mask_verdicts(children, ancestors, degrees):
    """Per child: irrelevant w.r.t. some ancestor, the row rule per ancestor."""
    verdicts = [False] * len(children)
    for ancestor in ancestors:
        mask = irrelevance_mask(children, ancestor, degrees)
        verdicts = [seen or hit for seen, hit in zip(verdicts, mask)]
    return verdicts


def _path_state(rows):
    """The (marking index, token-total multiset) SchedulingTree maintains."""
    return {row: node for node, row in enumerate(rows)}, dict(
        Counter(sum(row) for row in rows)
    )


@pytest.mark.parametrize("seed", range(5))
def test_chunked_irrelevance_mask_is_bitwise_identical(seed):
    """Definition 4.5 against a 500-deep path, three ways: the row rule one
    ancestor at a time, the exact walk (``witnessed_by``) and the search's
    own verdict (the incremental checker, the walk where it is capped)."""
    children, ancestors, degrees = _random_irrelevance_inputs(33, 500, 17, seed)
    expected = _mask_verdicts(children, ancestors, degrees)
    assert any(expected) and not all(expected)
    path_index, total_counts = _path_state(ancestors)
    checker = IncrementalIrrelevance(degrees)
    for i, vec in enumerate(children):
        walked = witnessed_by(degrees, vec, sum(vec), ((sum(row), row) for row in ancestors))
        assert walked == expected[i], (seed, i)
        verdict = checker.check(vec, path_index, total_counts, sum(vec))
        assert verdict in (None, walked), (seed, i)
    assert checker.children_checked == len(children)


def test_chunked_irrelevance_mask_handles_empty_inputs():
    degrees = (0, 0, 0, 0)
    some_children = [(1, 0, 0, 0), (0, 0, 0, 0)]
    assert irrelevance_mask([], (1, 1, 1, 1), degrees) == []
    # an empty path witnesses nothing, whichever way it is asked
    assert not any(_mask_verdicts(some_children, [], degrees))
    checker = IncrementalIrrelevance(degrees)
    for vec in some_children:
        assert not witnessed_by(degrees, vec, sum(vec), ())
        assert checker.check(vec, {}, {}, sum(vec)) is False


def test_depth_500_path_stays_under_the_memory_budget():
    """Checking children against a deep path must not materialise the
    O(children x depth x places) cube a broadcast over the path would.

    The search's checker probes the path's marking index instead: 128
    children, each one token over degree on one place, against a 500-deep
    path of 256-place markings.
    """
    rng = random.Random(3)
    n_places, depth = 256, 500
    degrees = (2,) * n_places
    ancestors = _random_rows(rng, depth, n_places, 3)
    rows = [list(ancestors[rng.randrange(depth)]) for _ in range(128)]
    for row in rows:
        saturated = [p for p, count in enumerate(row) if count >= degrees[p]]
        row[saturated[0] if saturated else 0] = 3
    for index, row in zip(range(1, 128, 2), _random_rows(rng, 64, n_places, 3)):
        rows[index] = (3,) + row[1:]  # unrelated rows, also one place over degree
    vecs = [tuple(row) for row in rows]
    cube_bytes = len(vecs) * depth * n_places
    expected = _mask_verdicts(vecs, ancestors, degrees)
    assert all(expected[::2]) and not any(expected[1::2])

    path_index, total_counts = _path_state(ancestors)
    checker = IncrementalIrrelevance(degrees)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        verdicts = [checker.check(vec, path_index, total_counts, sum(vec)) for vec in vecs]
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdicts == expected
    assert checker.capped_children == 0
    assert peak < cube_bytes // 100, (peak, cube_bytes)
