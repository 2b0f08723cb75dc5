"""Differential harness pinning the batched and kernel EP backends to scalar.

The batched backend rewrites the innermost loop of the scheduler -- frontier
expansion, termination masks, marking interning -- and the kernel backend
fuses that loop further (one call over contiguous buffers, incremental
irrelevance); both sit behind one equivalence contract: for any net and any
supported options, every backend must produce the same canonical schedule
(byte-identical under :func:`schedule_to_json`), the same failure reason,
the same tree, and the same :class:`SearchCounters` modulo the counters
listed in ``SearchCounters.BACKEND_ONLY``.

This module enforces the contract three ways:

* a seeded fuzz sweep over 200+ generated nets (marked graphs, choice
  diamonds, multi-source rings) running the three backends side by side;
* edge cases the fuzzers are unlikely to hit: empty frontiers, one-place
  nets, bound-saturated frontiers, all-irrelevant frontiers, token counts
  at the int64 guard;
* unit tests of the frontier primitives and the backend resolution rules.

Kernel-specific behaviour (tier resolution, the fallback warning, the
incremental irrelevance checker itself) lives in ``tests/test_kernel.py``.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.apps.workloads import (
    random_choice_net,
    random_marked_graph,
    random_multi_source_net,
)
from repro.petrinet.batched import (
    FRONTIER_TOKEN_GUARD,
    FrontierOverflowError,
    expand_children,
    irrelevance_frontier_mask,
)
from repro.petrinet.net import PetriNet, SourceKind
from repro.scheduling.ep import (
    SchedulerOptions,
    SearchCounters,
    find_all_schedules,
    find_schedule,
    resolve_backend_for,
)
from repro.scheduling.serialize import schedule_fingerprint, schedule_to_dict
from repro.scheduling.termination import (
    CompositeCondition,
    NodeBudget,
    PlaceBoundCondition,
    TerminationCondition,
    split_frontier_conditions,
)


def comparable_counters(counters: SearchCounters) -> dict:
    """Counter dict with the backend-only counters removed."""
    data = counters.as_dict()
    for key in SearchCounters.BACKEND_ONLY:
        data.pop(key)
    return data


def assert_results_equivalent(scalar, batched):
    """The full equivalence contract between two SchedulerResults."""
    assert scalar.success == batched.success
    assert scalar.failure_reason == batched.failure_reason
    assert scalar.tree_nodes == batched.tree_nodes
    assert comparable_counters(scalar.counters) == comparable_counters(batched.counters)
    if scalar.success:
        assert schedule_to_dict(scalar.schedule) == schedule_to_dict(batched.schedule)
        assert schedule_fingerprint(scalar.schedule) == schedule_fingerprint(
            batched.schedule
        )


ALL_BACKENDS = ("scalar", "batched", "kernel")


def run_all_backends(net, source, *, max_nodes=600, termination=None):
    """One search per backend; returns (scalar, batched, kernel) results.

    The scalar/kernel pair is asserted equivalent here, so the many edge
    tests that only unpack ``scalar, batched`` still exercise the full
    three-way contract.
    """
    results = {}
    for backend in ALL_BACKENDS:
        options = SchedulerOptions(
            max_nodes=max_nodes, backend=backend, termination=termination
        )
        results[backend] = find_schedule(net, source, options=options)
    assert_results_equivalent(results["scalar"], results["kernel"])
    return results["scalar"], results["batched"], results["kernel"]


# ---------------------------------------------------------------------------
# differential fuzz sweep (>= 200 generated nets)
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
        scalar, batched, kernel = run_all_backends(net, source)
        assert_results_equivalent(scalar, batched)


def test_fuzz_sweep_exercises_the_batched_and_kernel_paths():
    """The generated nets must actually run batched/kernel (no silent fallbacks)."""
    batched_runs = 0
    kernel_runs = 0
    successes = 0
    for kind, seed in FUZZ_CASES[::7]:
        net = build_fuzz_net(kind, seed)
        options = SchedulerOptions(max_nodes=600, backend="batched")
        assert resolve_backend_for(net, options) == "batched"
        kernel_options = SchedulerOptions(max_nodes=600, backend="kernel")
        assert resolve_backend_for(net, kernel_options) == "kernel"
        for source in net.uncontrollable_sources():
            result = find_schedule(net, source, options=options)
            if result.counters.batched_expansions:
                batched_runs += 1
            kernel_result = find_schedule(net, source, options=kernel_options)
            if kernel_result.counters.kernel_expansions:
                kernel_runs += 1
            assert kernel_result.counters.batched_expansions == 0
            successes += bool(result.success)
    assert batched_runs > 0
    assert kernel_runs > 0
    assert successes > 0


def test_differential_on_an_unschedulable_paper_net():
    """Failures must be byte-identical too (reason, tree size, counters)."""
    from repro.apps import paper_nets

    net = paper_nets.figure_4b()
    scalar, batched, kernel = run_all_backends(net, "a", max_nodes=5000)
    assert not scalar.success
    assert_results_equivalent(scalar, batched)
    assert batched.counters.batched_expansions > 0


def test_differential_find_all_schedules_merged_counters():
    """Multi-source nets: per-source results and merged counters agree."""
    for seed in (3, 11, 27):
        net = random_multi_source_net(3, 3, seed=seed)
        per_backend = {
            backend: find_all_schedules(
                net, options=SchedulerOptions(max_nodes=600), backend=backend
            )
            for backend in ALL_BACKENDS
        }
        scalar = per_backend["scalar"]
        for backend in ("batched", "kernel"):
            other = per_backend[backend]
            assert list(scalar) == list(other)
            for source in scalar:
                assert_results_equivalent(scalar[source], other[source])
        merged = {
            backend: SearchCounters.aggregate(r.counters for r in results.values())
            for backend, results in per_backend.items()
        }
        assert (
            comparable_counters(merged["scalar"])
            == comparable_counters(merged["batched"])
            == comparable_counters(merged["kernel"])
        )
        assert merged["batched"].batched_expansions > 0
        assert merged["kernel"].kernel_expansions > 0


# ---------------------------------------------------------------------------
# edge cases
# ---------------------------------------------------------------------------


def _starved_net() -> PetriNet:
    """One source event is not enough to enable anything downstream."""
    net = PetriNet(name="starved")
    net.add_transition("src", source_kind=SourceKind.UNCONTROLLABLE)
    net.add_place("p")
    net.add_arc("src", "p")
    net.add_transition("t")
    net.add_arc("p", "t", 2)  # needs two tokens; one event provides one
    return net


def test_empty_frontier_backtracks_identically():
    """The child of the first source firing has an *empty* frontier.

    The search must backtrack out of it and recover by deferring to a second
    source event (two await nodes) -- on both backends, identically.
    """
    net = _starved_net()
    scalar, batched, kernel = run_all_backends(net, "src", max_nodes=50)
    assert scalar.success
    assert len(scalar.schedule.await_nodes()) == 2
    assert_results_equivalent(scalar, batched)
    assert batched.counters.batched_expansions > 0


def test_empty_frontier_with_banned_source_refire_fails_identically():
    """Bounding p to one token forbids the recovery: EP fails outright."""
    net = _starved_net()
    termination = CompositeCondition(
        conditions=[PlaceBoundCondition.uniform(net, 1), NodeBudget(max_nodes=50)]
    )
    scalar, batched, kernel = run_all_backends(net, "src", termination=termination)
    assert not scalar.success
    assert_results_equivalent(scalar, batched)


def test_single_place_single_transition_net():
    net = PetriNet(name="tiny")
    net.add_transition("src", source_kind=SourceKind.UNCONTROLLABLE)
    net.add_place("p")
    net.add_transition("t")
    net.add_arc("src", "p")
    net.add_arc("p", "t")
    scalar, batched, kernel = run_all_backends(net, "src")
    assert scalar.success
    assert_results_equivalent(scalar, batched)
    assert batched.counters.batched_expansions > 0


def test_every_child_violates_the_configured_bound():
    """A zero place bound prunes the entire frontier at every node."""
    net = random_choice_net(2, seed=5)
    termination = CompositeCondition(
        conditions=[PlaceBoundCondition.uniform(net, 0), NodeBudget(max_nodes=200)]
    )
    scalar, batched, kernel = run_all_backends(net, "src", termination=termination)
    assert not scalar.success
    assert_results_equivalent(scalar, batched)
    # the condition decomposes, so the batched path must really have run
    assert batched.counters.batched_expansions > 0


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
    # no T-invariant fires src (tokens only accumulate), so the precheck
    # must be disabled for the search -- and its irrelevance pruning -- to run
    results = {}
    for backend in ("scalar", "batched"):
        results[backend] = find_schedule(
            net,
            "src",
            options=SchedulerOptions(
                max_nodes=100,
                backend=backend,
                invariant_precheck=False,
                use_invariant_heuristic=False,
            ),
        )
    scalar, batched = results["scalar"], results["batched"]
    assert not scalar.success
    assert scalar.counters.nodes_expanded > 0
    assert_results_equivalent(scalar, batched)
    assert batched.counters.batched_expansions > 0


def test_int64_guard_falls_back_to_exact_scalar_arithmetic():
    """Token counts near the int64 threshold must not reach the matrices."""
    huge = FRONTIER_TOKEN_GUARD  # 2**62
    net = PetriNet(name="huge_tokens")
    net.add_transition("src", source_kind=SourceKind.UNCONTROLLABLE)
    net.add_place("p", huge)
    net.add_transition("t")
    net.add_arc("src", "p")
    net.add_arc("p", "t")
    options = SchedulerOptions(max_nodes=100, backend="batched")
    # the static guard downgrades even explicit backend="batched"/"kernel"
    assert resolve_backend_for(net, options) == "scalar"
    assert (
        resolve_backend_for(net, SchedulerOptions(max_nodes=100, backend="kernel"))
        == "scalar"
    )
    scalar, batched, kernel = run_all_backends(net, "src", max_nodes=100)
    assert_results_equivalent(scalar, batched)
    assert batched.counters.batched_expansions == 0
    assert kernel.counters.kernel_expansions == 0

    # a comfortable margin below the guard stays on the batched path
    small = PetriNet(name="large_but_safe")
    small.add_transition("src", source_kind=SourceKind.UNCONTROLLABLE)
    small.add_place("p", 2**40)
    small.add_transition("t")
    small.add_arc("src", "p")
    small.add_arc("p", "t")
    assert resolve_backend_for(small, options) == "batched"
    assert (
        resolve_backend_for(small, SchedulerOptions(max_nodes=100, backend="kernel"))
        == "kernel"
    )
    scalar, batched, kernel = run_all_backends(small, "src", max_nodes=100)
    assert_results_equivalent(scalar, batched)


def test_expand_children_dtype_guard_raises():
    net = PetriNet(name="overflow_unit")
    net.add_place("p", 1)
    net.add_transition("t")
    net.add_arc("p", "t")
    inet = net.indexed()
    with pytest.raises(FrontierOverflowError):
        expand_children(inet, (FRONTIER_TOKEN_GUARD,), [0])
    # one below the guard is accepted and exact
    rows = expand_children(inet, (FRONTIER_TOKEN_GUARD - 1,), [0])
    assert rows.tolist() == [[FRONTIER_TOKEN_GUARD - 2]]


def test_expand_children_empty_frontier_shapes():
    net = PetriNet(name="shapes")
    net.add_place("p", 1)
    net.add_transition("t")
    net.add_arc("p", "t")
    inet = net.indexed()
    rows = expand_children(inet, (1,), [])
    assert rows.shape == (0, 1)
    mask = irrelevance_frontier_mask(
        rows, np.zeros((0, 1), dtype=np.int64), np.zeros(1, dtype=np.int64)
    )
    assert mask.shape == (0,)


# ---------------------------------------------------------------------------
# backend resolution rules
# ---------------------------------------------------------------------------


class _OpaqueCondition(TerminationCondition):
    """A user condition the batched backend cannot decompose."""

    name = "opaque"

    def holds(self, tree, node):
        return False


def test_unsupported_termination_condition_forces_scalar():
    net = random_choice_net(2, seed=1)
    opaque = CompositeCondition(
        conditions=[_OpaqueCondition(), NodeBudget(max_nodes=400)]
    )
    assert split_frontier_conditions(opaque) is None
    options = SchedulerOptions(backend="batched", termination=opaque, max_nodes=400)
    assert resolve_backend_for(net, options, opaque) == "scalar"
    kernel_options = SchedulerOptions(
        backend="kernel", termination=opaque, max_nodes=400
    )
    assert resolve_backend_for(net, kernel_options, opaque) == "scalar"
    batched_request = find_schedule(net, "src", options=options)
    scalar = find_schedule(
        net,
        "src",
        options=SchedulerOptions(backend="scalar", termination=opaque, max_nodes=400),
    )
    assert batched_request.counters.batched_expansions == 0
    assert_results_equivalent(scalar, batched_request)


def test_unknown_backend_is_rejected():
    net = random_marked_graph(3, seed=0)
    with pytest.raises(ValueError, match="unknown scheduler backend"):
        find_schedule(net, "src", options=SchedulerOptions(backend="vectorised"))


def test_auto_resolves_to_scalar_for_default_options():
    net = random_choice_net(2, seed=2)
    assert resolve_backend_for(net, SchedulerOptions()) == "scalar"
    result = find_schedule(net, "src")
    assert result.counters.kernel_expansions == 0
    assert result.counters.batched_expansions == 0
    kernel = find_schedule(net, "src", options=SchedulerOptions(backend="kernel"))
    assert kernel.counters.kernel_expansions > 0
    assert schedule_fingerprint(result.schedule) == schedule_fingerprint(
        kernel.schedule
    )
    # the matrix backends stay selectable on request
    assert resolve_backend_for(net, SchedulerOptions(backend="batched")) == "batched"
    assert resolve_backend_for(net, SchedulerOptions(backend="kernel")) == "kernel"


# ---------------------------------------------------------------------------
# the chunked irrelevance frontier mask (fixed memory budget on deep paths)
# ---------------------------------------------------------------------------


def _random_irrelevance_inputs(n_children, depth, n_places, seed):
    rng = np.random.default_rng(seed)
    children = rng.integers(0, 4, size=(n_children, n_places), dtype=np.int64)
    ancestors = rng.integers(0, 4, size=(depth, n_places), dtype=np.int64)
    # plant some guaranteed-irrelevant pairs: child == ancestor + growth on a
    # place the ancestor already saturates (degree 0 means always saturated)
    degrees = rng.integers(0, 3, size=n_places, dtype=np.int64)
    for child in range(0, n_children, 7):
        ancestor = ancestors[child % depth].copy()
        saturated = np.flatnonzero(ancestor >= degrees)
        if saturated.size:
            grown = ancestor.copy()
            grown[saturated[0]] += 1
            children[child] = grown
    return children, ancestors, degrees


@pytest.mark.parametrize("seed", range(5))
def test_chunked_irrelevance_mask_is_bitwise_identical(seed):
    from repro.petrinet.batched import irrelevance_frontier_mask

    children, ancestors, degrees = _random_irrelevance_inputs(33, 500, 17, seed)
    unchunked = irrelevance_frontier_mask(
        children, ancestors, degrees, chunk_elements=1 << 62
    )
    for chunk_elements in (1, 64, 4096, 1 << 20):
        chunked = irrelevance_frontier_mask(
            children, ancestors, degrees, chunk_elements=chunk_elements
        )
        assert np.array_equal(chunked, unchunked), chunk_elements
    # the default budget agrees too
    assert np.array_equal(
        irrelevance_frontier_mask(children, ancestors, degrees), unchunked
    )


def test_chunked_irrelevance_mask_handles_empty_inputs():
    from repro.petrinet.batched import irrelevance_frontier_mask

    degrees = np.zeros(4, dtype=np.int64)
    empty_children = np.zeros((0, 4), dtype=np.int64)
    some_children = np.zeros((2, 4), dtype=np.int64)
    empty_ancestors = np.zeros((0, 4), dtype=np.int64)
    assert irrelevance_frontier_mask(
        empty_children, np.ones((3, 4), dtype=np.int64), degrees
    ).shape == (0,)
    assert not irrelevance_frontier_mask(
        some_children, empty_ancestors, degrees
    ).any()


def test_depth_500_path_stays_under_the_memory_budget():
    """The regression this chunking exists for: a deep path must not
    materialise the O(children x depth x places) cube."""
    import tracemalloc

    from repro.petrinet.batched import (
        IRRELEVANCE_CHUNK_ELEMENTS,
        irrelevance_frontier_mask,
    )

    children, ancestors, degrees = _random_irrelevance_inputs(128, 500, 256, 3)
    cube_bytes = children.shape[0] * ancestors.shape[0] * children.shape[1]
    assert cube_bytes > 4 * IRRELEVANCE_CHUNK_ELEMENTS  # the cube would blow it

    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        chunked = irrelevance_frontier_mask(children, ancestors, degrees)
        _size, chunked_peak = tracemalloc.get_traced_memory()

        tracemalloc.reset_peak()
        unchunked = irrelevance_frontier_mask(
            children, ancestors, degrees, chunk_elements=1 << 62
        )
        _size, unchunked_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(chunked, unchunked)
    # a handful of per-chunk boolean intermediates (int64 comparisons produce
    # bool arrays of chunk size), nowhere near the full cube
    assert chunked_peak < 16 * IRRELEVANCE_CHUNK_ELEMENTS, chunked_peak
    assert unchunked_peak > chunked_peak * 2, (unchunked_peak, chunked_peak)
