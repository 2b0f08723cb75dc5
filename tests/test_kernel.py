"""The fused expansion kernel: tiers, fallback, incremental irrelevance.

Covers the contracts specific to :mod:`repro.petrinet.kernel` (the
scalar/batched/kernel *differential* harness lives in
``tests/test_batched_ep.py``):

* tier resolution -- ``REPRO_KERNEL=0`` and a missing/broken numba degrade
  to the NumPy reference tier with a once-per-process :class:`RuntimeWarning`
  and byte-identical schedules;
* :class:`IncrementalIrrelevance` -- bitwise identity against the exact
  ancestor-matrix broadcast on random inputs, the enumeration cap, and
  depth-*independence* of its op counters (the regression the incremental
  state exists for, asserted on counters rather than wall clock);
* the ``frontier_mask`` public extension point -- a user-defined maskable
  condition keeps the batched *and* kernel backends and agrees with its
  scalar ``holds``;
* :meth:`MarkingStore.intern_rows` -- the bulk admission step;
* golden parity -- kernel counters equal batched counters modulo the
  backend-only fields on every golden case, and all three backends
  reproduce the committed golden fixtures byte for byte.
"""

from __future__ import annotations

import warnings
from collections import Counter

import numpy as np
import pytest

from golden_nets import GOLDEN_CASES, derive_case, fixture_path, render_case
from repro.apps import paper_nets
from repro.apps.paper_nets import SourceKind
from repro.petrinet import kernel as kernel_mod
from repro.petrinet.analysis import place_degree
from repro.petrinet.batched import irrelevance_frontier_mask
from repro.petrinet.indexed import MarkingStore
from repro.petrinet.kernel import (
    IRRELEVANCE_ENUM_CAP,
    IncrementalIrrelevance,
    compiled_tier_available,
    kernel_enabled,
    reset_kernel_warning,
    resolve_kernel_tier,
)
from repro.petrinet.net import PetriNet
from repro.scheduling.ep import (
    SchedulerOptions,
    SearchCounters,
    _EPSearch,
    find_schedule,
    resolve_backend_for,
)
from repro.scheduling.serialize import schedule_fingerprint
from repro.scheduling.termination import (
    CompositeCondition,
    IrrelevanceCriterion,
    NodeBudget,
    TerminationCondition,
    default_termination,
    fold_termination,
)

ALL_GOLDEN_CASES = [
    (net_name, source)
    for net_name, (_builder, sources) in sorted(GOLDEN_CASES.items())
    for source in sources
]


@pytest.fixture(autouse=True)
def _rearm_fallback_warning():
    """Each test observes the fallback warning as if the process were fresh."""
    reset_kernel_warning()
    yield
    reset_kernel_warning()


# ---------------------------------------------------------------------------
# tier resolution and the graceful fallback
# ---------------------------------------------------------------------------


def test_kernel_enabled_parses_the_env_knob(monkeypatch):
    for value in ("0", "false", "OFF", " no "):
        monkeypatch.setenv(kernel_mod.KERNEL_ENV, value)
        assert not kernel_enabled(), value
    for value in ("1", "true", "on", "anything"):
        monkeypatch.setenv(kernel_mod.KERNEL_ENV, value)
        assert kernel_enabled(), value
    monkeypatch.delenv(kernel_mod.KERNEL_ENV, raising=False)
    assert kernel_enabled()


def test_env_disable_degrades_to_numpy_with_one_warning(monkeypatch):
    monkeypatch.setenv(kernel_mod.KERNEL_ENV, "0")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert resolve_kernel_tier() == "numpy"
        assert resolve_kernel_tier() == "numpy"  # second resolve stays silent
    fallback = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(fallback) == 1
    assert "compiled kernel tier unavailable" in str(fallback[0].message)
    assert "NumPy reference tier" in str(fallback[0].message)


def test_explicit_numpy_request_is_silent(monkeypatch):
    monkeypatch.setenv(kernel_mod.KERNEL_ENV, "0")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert resolve_kernel_tier("numpy") == "numpy"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_warn_false_suppresses_the_fallback_warning(monkeypatch):
    monkeypatch.setenv(kernel_mod.KERNEL_ENV, "0")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert resolve_kernel_tier(warn=False) == "numpy"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    # the one-shot warning is still armed for the next warning resolve
    with pytest.warns(RuntimeWarning, match="compiled kernel tier unavailable"):
        resolve_kernel_tier()


def test_unknown_tier_request_raises():
    with pytest.raises(ValueError, match="unknown kernel tier"):
        resolve_kernel_tier("simd")


def test_resolution_matches_the_container():
    """Auto picks the compiled tier exactly when it is actually available."""
    tier = resolve_kernel_tier(warn=False)
    if compiled_tier_available() and kernel_enabled():
        assert tier == "compiled"
    else:
        assert tier == "numpy"


def test_explicit_compiled_request_degrades_when_unavailable(monkeypatch):
    monkeypatch.setenv(kernel_mod.KERNEL_ENV, "0")
    with pytest.warns(RuntimeWarning, match="compiled kernel tier unavailable"):
        assert resolve_kernel_tier("compiled") == "numpy"


def test_env_disabled_searches_stay_byte_identical(monkeypatch):
    """REPRO_KERNEL=0 changes the tier, never the schedule."""
    reference = find_schedule(
        paper_nets.figure_5(), "a", options=SchedulerOptions(backend="scalar")
    )
    monkeypatch.setenv(kernel_mod.KERNEL_ENV, "0")
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        degraded = find_schedule(
            paper_nets.figure_5(), "a", options=SchedulerOptions(backend="kernel")
        )
    assert degraded.success and reference.success
    assert schedule_fingerprint(degraded.schedule) == schedule_fingerprint(
        reference.schedule
    )
    assert degraded.counters.kernel_expansions > 0


def test_pinned_numpy_tier_matches_auto_tier_results():
    auto = find_schedule(
        paper_nets.figure_6(), "a", options=SchedulerOptions(backend="kernel")
    )
    pinned = find_schedule(
        paper_nets.figure_6(),
        "a",
        options=SchedulerOptions(backend="kernel", kernel_tier="numpy"),
    )
    assert schedule_fingerprint(auto.schedule) == schedule_fingerprint(pinned.schedule)
    assert auto.counters.as_dict() == pinned.counters.as_dict()


def test_options_cache_key_separates_tiers_not_backend_equivalence():
    from repro.scheduling.warmstart import options_cache_key

    scalar_key = options_cache_key(SchedulerOptions(backend="scalar"))
    batched_key = options_cache_key(SchedulerOptions(backend="batched"))
    auto_key = options_cache_key(SchedulerOptions())
    # scalar/batched searches never reach the kernel, and auto resolves to
    # scalar: no tier in their keys
    assert scalar_key[-1] is None and batched_key[-1] is None
    assert auto_key[-1] is None
    # an explicit kernel request keys on the tier the process would run
    kernel_key = options_cache_key(SchedulerOptions(backend="kernel"))
    assert kernel_key[-1] == resolve_kernel_tier(warn=False)
    pinned_key = options_cache_key(SchedulerOptions(backend="kernel", kernel_tier="numpy"))
    assert pinned_key[-1] == "numpy"
    assert len({scalar_key, batched_key, auto_key}) == 3


# ---------------------------------------------------------------------------
# IncrementalIrrelevance: bitwise identity with the exact broadcast
# ---------------------------------------------------------------------------


def _random_path_inputs(n_children, depth, n_places, seed, high=4):
    """Random (children, ancestors, degrees) with planted irrelevant pairs."""
    rng = np.random.default_rng(seed)
    children = rng.integers(0, high, size=(n_children, n_places), dtype=np.int64)
    ancestors = rng.integers(0, high, size=(depth, n_places), dtype=np.int64)
    degrees = rng.integers(0, 3, size=n_places, dtype=np.int64)
    # plant guaranteed witnesses: child = ancestor + growth on a place the
    # ancestor already saturates
    for child in range(0, n_children, 5):
        ancestor = ancestors[child % depth]
        saturated = np.flatnonzero(ancestor >= degrees)
        if saturated.size:
            grown = ancestor.copy()
            grown[saturated[0]] += 1
            children[child] = grown
    return children, ancestors, degrees


def _path_state(ancestors):
    """The (marking index, token-total multiset) SchedulingTree maintains."""
    path_index = {tuple(map(int, row)): node for node, row in enumerate(ancestors)}
    total_counts = dict(Counter(int(row.sum()) for row in ancestors))
    return path_index, total_counts


@pytest.mark.parametrize("seed", range(8))
def test_incremental_check_is_bitwise_identical_to_the_broadcast(seed):
    children, ancestors, degrees = _random_path_inputs(40, 60, 9, seed)
    path_index, total_counts = _path_state(ancestors)
    expected = irrelevance_frontier_mask(children, ancestors, degrees)
    checker = IncrementalIrrelevance(degrees, cap=1 << 60)  # never capped
    for i, row in enumerate(children):
        vec = tuple(map(int, row))
        verdict = checker.check(vec, path_index, total_counts, sum(vec))
        assert verdict is not None
        assert verdict == bool(expected[i]), (seed, i)
    assert checker.capped_children == 0
    assert checker.children_checked == len(children)


@pytest.mark.parametrize("seed", range(4))
def test_default_cap_flags_exactly_the_capped_children(seed):
    """None verdicts appear iff the combination count exceeds the cap, and
    every decided child still agrees with the broadcast."""
    children, ancestors, degrees = _random_path_inputs(30, 40, 12, seed, high=9)
    path_index, total_counts = _path_state(ancestors)
    expected = irrelevance_frontier_mask(children, ancestors, degrees)
    checker = IncrementalIrrelevance(degrees)
    assert checker.cap == IRRELEVANCE_ENUM_CAP
    capped = 0
    for i, row in enumerate(children):
        vec = tuple(map(int, row))
        combos = 1
        for p, count in enumerate(vec):
            if count > degrees[p]:
                combos *= count - degrees[p] + 1
        verdict = checker.check(vec, path_index, total_counts, sum(vec))
        if combos > IRRELEVANCE_ENUM_CAP:
            assert verdict is None, (seed, i)
            capped += 1
        else:
            assert verdict == bool(expected[i]), (seed, i)
    assert checker.capped_children == capped
    assert capped > 0  # the high token range makes the cap bite somewhere


def test_child_without_over_degree_place_short_circuits():
    checker = IncrementalIrrelevance(degrees=(2, 2, 2))
    verdict = checker.check((1, 2, 0), {(0, 0, 0): 0}, {0: 1}, 3)
    assert verdict is False
    assert checker.stats() == {
        "children_checked": 1,
        "decided_by_degree_filter": 1,
        "candidates_probed": 0,
        "capped_children": 0,
    }


def test_equal_path_marking_is_not_a_witness():
    """Definition 4.5 requires A != C: a path marking equal to the child
    closes a cycle instead of pruning, so the identity candidate is skipped."""
    checker = IncrementalIrrelevance(degrees=(1,))
    vec = (3,)  # over degree: candidate span is {1, 2, 3}
    path_index, total_counts = _path_state(np.asarray([[3]], dtype=np.int64))
    assert checker.check(vec, path_index, total_counts, 3) is False
    # the broadcast agrees: cover & differs excludes the equal row
    mask = irrelevance_frontier_mask(
        np.asarray([vec], dtype=np.int64),
        np.asarray([[3]], dtype=np.int64),
        np.asarray([1], dtype=np.int64),
    )
    assert not mask[0]


def test_planted_witness_is_found():
    checker = IncrementalIrrelevance(degrees=(1, 0))
    # ancestor (1, 5) is saturated on both places; child grew the first
    path_index, total_counts = _path_state(np.asarray([[1, 5]], dtype=np.int64))
    assert checker.check((2, 5), path_index, total_counts, 7) is True


# ---------------------------------------------------------------------------
# depth-regression: per-child cost must not grow with the path depth
# ---------------------------------------------------------------------------


def test_op_counts_are_independent_of_path_depth():
    """The same frontier checked against a 500-deep path costs exactly the
    same ops as against a 50-deep path.

    This is the regression the incremental state exists for: the old
    per-node ancestor walk was O(depth), so deepening the path would have
    multiplied the op counts by ~10x here.  The extra 450 ancestors carry
    token totals no candidate can reach, which the total-multiset filter
    rejects without a single additional probe.
    """
    children, shallow, degrees = _random_path_inputs(40, 50, 9, seed=17)
    deep_tail = shallow[0] + 1000  # totals far above any candidate's
    deep = np.vstack([shallow, np.tile(deep_tail, (450, 1))])
    assert deep.shape[0] == 500

    stats = []
    for ancestors in (shallow, deep):
        path_index, total_counts = _path_state(ancestors)
        checker = IncrementalIrrelevance(degrees, cap=1 << 60)
        for row in children:
            vec = tuple(map(int, row))
            checker.check(vec, path_index, total_counts, sum(vec))
        stats.append(checker.stats())
    assert stats[0] == stats[1]
    assert stats[0]["children_checked"] == len(children)


def saturated_pipeline(stages: int) -> PetriNet:
    """A ``stages``-deep pipeline whose whole path is one token over-degree.

    ``src`` forks into two unit producers of ``join`` (degree 1, Definition
    4.4), so ``join`` holds 2 tokens -- over-degree by exactly one -- while
    the linear pipeline runs; two drains gated on the pipeline's tail
    restore the empty marking, keeping the net cyclically schedulable.
    Every child expanded along the deep path therefore reaches the
    incremental checker with a single-span candidate set.
    """
    net = PetriNet(name=f"satpipe{stages}")
    net.add_transition("src", source_kind=SourceKind.UNCONTROLLABLE)
    for place in ("p_a", "p_b", "join"):
        net.add_place(place)
    net.add_arc("src", "p_a")
    net.add_arc("src", "p_b")
    net.add_transition("a")
    net.add_arc("p_a", "a")
    net.add_arc("a", "join")
    net.add_transition("b")
    net.add_arc("p_b", "b")
    net.add_arc("b", "join")
    net.add_place("q0")
    net.add_arc("b", "q0")
    previous = "q0"
    for stage in range(1, stages + 1):
        transition, place = f"s{stage}", f"q{stage}"
        net.add_transition(transition)
        net.add_place(place)
        net.add_arc(previous, transition)
        net.add_arc(transition, place)
        previous = place
    net.add_transition("d1")
    net.add_place("qd1")
    net.add_arc("join", "d1")
    net.add_arc(previous, "d1")
    net.add_arc("d1", "qd1")
    net.add_transition("d2")
    net.add_place("qd2")
    net.add_arc("join", "d2")
    net.add_arc("qd1", "d2")
    net.add_arc("d2", "qd2")
    net.add_transition("sink")
    net.add_arc("qd2", "sink")
    return net


def _deep_search(backend: str, stages: int = 500):
    """One deep-path search with an inspectable criterion instance."""
    net = saturated_pipeline(stages)
    criterion = IrrelevanceCriterion.for_net(net)
    termination = CompositeCondition(
        conditions=[criterion, NodeBudget(max_nodes=200_000)]
    )
    options = SchedulerOptions(
        backend=backend, termination=termination, use_invariant_heuristic=False
    )
    result = find_schedule(net, "src", options=options)
    return result, criterion


def test_depth_500_search_stays_within_constant_per_child_ops():
    """The whole 500-deep search runs on O(1) irrelevance ops per child.

    Asserted on the checker's op counters, not wall clock: every child
    carries exactly one over-degree place one token over its degree
    (``join``), so the candidate set has at most one non-identity member --
    at most one hash probe per child, never the enumeration cap, never the
    O(depth) ancestor-matrix fallback.  Under the old per-node walk this
    search performed ~depth/2 ancestor comparisons per child (~125,000
    total); the probe bound pins the new cost at <= 1 per child.
    """
    net = saturated_pipeline(500)
    assert place_degree(net, "join") == 1

    result, criterion = _deep_search("kernel")
    assert result.success
    stats = criterion._incremental.stats()
    assert stats["children_checked"] >= 500
    assert stats["capped_children"] == 0
    assert stats["candidates_probed"] <= stats["children_checked"]


def test_deep_search_is_backend_identical_with_identical_op_profile():
    kernel_result, _ = _deep_search("kernel", stages=120)
    scalar_result, scalar_criterion = _deep_search("scalar", stages=120)
    batched_result, _ = _deep_search("batched", stages=120)
    fingerprints = {
        schedule_fingerprint(result.schedule)
        for result in (kernel_result, scalar_result, batched_result)
    }
    assert len(fingerprints) == 1
    # the scalar fast path ran on the same incremental state (shared via
    # IrrelevanceCriterion.incremental_for), not the O(depth) walk
    scalar_stats = scalar_criterion._incremental.stats()
    assert scalar_stats["children_checked"] > 0
    assert scalar_stats["capped_children"] == 0


# ---------------------------------------------------------------------------
# the frontier_mask public extension point
# ---------------------------------------------------------------------------


class TokenCeilingCondition(TerminationCondition):
    """Example user condition: prune when the total token count exceeds a
    ceiling.  Implements the documented extension-point pair, so searches
    using it keep the batched/kernel backends."""

    name = "token-ceiling"
    supports_frontier_mask = True

    def __init__(self, ceiling: int):
        self.ceiling = ceiling
        self.mask_calls = 0
        self.holds_calls = 0

    def holds(self, tree, node) -> bool:
        self.holds_calls += 1
        vec_of = getattr(tree, "vec_of", None)
        if vec_of is not None:
            return sum(vec_of(node)) > self.ceiling
        return sum(tree.marking_of(node).values()) > self.ceiling

    def frontier_mask(self, inet, ancestors, children, child_depth):
        self.mask_calls += 1
        return children.sum(axis=1) > self.ceiling


def _ceiling_options(net, backend, ceiling):
    termination = default_termination(net, extra=[TokenCeilingCondition(ceiling)])
    return SchedulerOptions(backend=backend, termination=termination)


@pytest.mark.parametrize("backend", ["batched", "kernel"])
def test_user_maskable_condition_keeps_the_matrix_backends(backend):
    net = paper_nets.figure_7(3)
    options = _ceiling_options(net, backend, ceiling=6)
    assert resolve_backend_for(net, options) == backend


@pytest.mark.parametrize("ceiling", [3, 5, 8])
def test_user_maskable_condition_agrees_across_all_backends(ceiling):
    results = {}
    masked = {}
    for backend in ("scalar", "batched", "kernel"):
        net = paper_nets.figure_7(3)
        termination = default_termination(
            net, extra=[condition := TokenCeilingCondition(ceiling)]
        )
        results[backend] = find_schedule(
            net,
            "a",
            options=SchedulerOptions(backend=backend, termination=termination),
        )
        masked[backend] = condition.mask_calls
    assert (
        results["scalar"].success
        == results["batched"].success
        == results["kernel"].success
    )
    if results["scalar"].success:
        fingerprints = {
            schedule_fingerprint(result.schedule) for result in results.values()
        }
        assert len(fingerprints) == 1
    # the condition really went through the frontier_mask protocol on both
    # matrix backends (the kernel folds it via its `extra` route)
    assert masked["batched"] > 0 and masked["kernel"] > 0
    assert masked["scalar"] == 0
    assert results["kernel"].counters.kernel_expansions > 0


def test_user_condition_takes_the_holds_fallback_on_the_scalar_backend():
    """A leaf the fold does not know stays in ``extra``: the kernel masks it,
    and the scalar search evaluates the whole condition through ``holds``
    on real (probe) nodes instead of the folded verdict."""
    net = paper_nets.figure_7(3)
    termination = default_termination(net, extra=[ceiling := TokenCeilingCondition(5)])
    fold = fold_termination(termination, net.indexed())
    assert fold.extra == [ceiling] and fold.irrelevance is not None
    search = _EPSearch(
        net, "a", SchedulerOptions(backend="scalar", termination=termination)
    )
    assert search._fold is None
    scalar = search.run()
    assert ceiling.holds_calls > 0 and ceiling.mask_calls == 0
    kernel = find_schedule(
        net,
        "a",
        options=SchedulerOptions(
            backend="kernel",
            termination=default_termination(net, extra=[TokenCeilingCondition(5)]),
        ),
    )
    assert scalar.success == kernel.success
    if scalar.success:
        assert schedule_fingerprint(scalar.schedule) == schedule_fingerprint(
            kernel.schedule
        )


def test_non_maskable_condition_still_forces_scalar():
    class OpaqueCondition(TerminationCondition):
        def holds(self, tree, node):
            return False

    net = paper_nets.figure_5()
    termination = default_termination(net, extra=[OpaqueCondition()])
    options = SchedulerOptions(backend="kernel", termination=termination)
    assert resolve_backend_for(net, options) == "scalar"


# ---------------------------------------------------------------------------
# MarkingStore.intern_rows: the bulk admission step
# ---------------------------------------------------------------------------


def test_intern_rows_is_canonical_with_scalar_interning():
    store = MarkingStore()
    single = store.intern((1, 2, 3))
    matrix = np.asarray([[1, 2, 3], [4, 5, 6], [1, 2, 3]], dtype=np.int64)
    rows = store.intern_rows(matrix)
    assert rows[0] is single  # same canonical object as the scalar intern
    assert rows[2] is rows[0]  # duplicates collapse within one call
    assert store.intern((4, 5, 6)) is rows[1]
    assert len(store) == 2
    assert rows == [(1, 2, 3), (4, 5, 6), (1, 2, 3)]


def test_intern_rows_handles_the_empty_frontier():
    store = MarkingStore()
    assert store.intern_rows(np.zeros((0, 3), dtype=np.int64)) == []
    assert len(store) == 0


# ---------------------------------------------------------------------------
# golden parity: counters and fixture bytes across the three backends
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("net_name,source", ALL_GOLDEN_CASES)
def test_kernel_counters_match_batched_modulo_backend_only(net_name, source):
    """Same search, same accounting: only the backend-only counters differ,
    and the kernel counts exactly the expansions the batched path counts."""
    builder, _sources = GOLDEN_CASES[net_name]
    batched = find_schedule(
        builder(), source, options=SchedulerOptions(backend="batched")
    )
    kernel = find_schedule(
        builder(), source, options=SchedulerOptions(backend="kernel")
    )
    batched_counts = batched.counters.as_dict()
    kernel_counts = kernel.counters.as_dict()
    for field in SearchCounters.BACKEND_ONLY:
        batched_counts.pop(field)
        kernel_counts.pop(field)
    assert kernel_counts == batched_counts
    assert (
        kernel.counters.kernel_expansions == batched.counters.batched_expansions
    )
    assert kernel.counters.batched_expansions == 0


@pytest.mark.parametrize("backend", ["scalar", "batched", "kernel"])
@pytest.mark.parametrize("net_name,source", ALL_GOLDEN_CASES)
def test_every_backend_reproduces_the_golden_fixture_bytes(
    net_name, source, backend
):
    """The committed fixtures are backend-free: each backend re-derives the
    exact bytes on disk (the byte-identical-schedule contract, end to end)."""
    regenerated = render_case(derive_case(net_name, source, backend=backend))
    assert regenerated == fixture_path(net_name, source).read_text()
