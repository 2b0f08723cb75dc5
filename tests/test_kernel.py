"""Incremental irrelevance, user conditions and golden parity of the EP search.

The fused expansion kernel this module covered is deleted with its tiers;
what it pinned of the scalar search stays here, under the same test names
so the test IDs stay stable:

* :class:`~repro.scheduling.termination.IncrementalIrrelevance` -- identity
  with Definition 4.5 decided three other ways on random inputs (the row
  rule :func:`fold_oracle.irrelevance_mask` one ancestor at a time, the
  exact walk :meth:`IrrelevanceCriterion.witnessed_by` and the facade
  :meth:`IrrelevanceCriterion.is_irrelevant`), the enumeration cap, and
  depth-*independence* of its op counters (the regression the incremental
  state exists for, asserted on counters rather than wall clock);
* user termination conditions -- a leaf the fold does not know sends the
  search to the ``termination.holds`` fallback, which must agree with the
  exact walk;
* what the environment, the options cache key and the reachability sweep
  may not change;
* golden parity -- every counter of the folded search equals its
  holds-fallback twin on every golden case, and every way of running the
  search reproduces the committed golden fixtures byte for byte.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from collections import Counter, deque
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import pytest

from fold_oracle import (
    WalkedIrrelevance,
    folded_and_fallback,
    init_fields,
    irrelevance_mask,
    observables,
    run_search,
    unfolded,
)
from golden_nets import GOLDEN_CASES, derive_case, fixture_path, render_case
from repro.apps import paper_nets
from repro.apps.paper_nets import SourceKind
from repro.apps.workloads import random_choice_net, random_marked_graph
from repro.cache import options_cache_key
from repro.petrinet.analysis import place_degree
from repro.petrinet.invariants import t_invariant_basis
from repro.petrinet.marking import Marking
from repro.petrinet.net import PetriNet
from repro.petrinet.reachability import build_reachability_graph
from repro.scheduling.ep import (
    SchedulerOptions,
    _EPSearch,
    find_all_schedules,
    find_schedule,
)
from repro.scheduling.termination import (
    IRRELEVANCE_ENUM_CAP,
    CompositeCondition,
    IncrementalIrrelevance,
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


# ---------------------------------------------------------------------------
# what the environment, the cache key and the reachability sweep may not change
# ---------------------------------------------------------------------------


TESTS = Path(__file__).resolve().parent

#: One search of every source of Figure 5 and its T-invariant basis, in a
#: fresh interpreter, printed as JSON.
_ENV_CHILD = """
import json, sys
sys.path[:0] = sys.argv[1:3]
from fold_oracle import observables
from repro.apps import paper_nets
from repro.petrinet.invariants import t_invariant_basis
from repro.scheduling.ep import find_all_schedules

results = find_all_schedules(paper_nets.figure_5())
print(json.dumps({
    "observables": [observables(result) for result in results.values()],
    "basis": t_invariant_basis(paper_nets.figure_5()),
}))
"""


def test_env_disabled_searches_stay_byte_identical(tmp_path):
    """The environment changes nothing below the daemon: two fresh
    interpreters with ``REPRO_CACHE=1`` and ``REPRO_CACHE_DIR`` set both
    search and eliminate afresh, return this process's bytes, and leave
    the cache directory empty."""
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    env = dict(os.environ, REPRO_CACHE="1", REPRO_CACHE_DIR=str(cache_dir))
    env.pop("PYTHONPATH", None)
    runs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-c", _ENV_CHILD, str(TESTS.parent / "src"), str(TESTS)],
            env=env,
            cwd=str(tmp_path),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout))
    results = find_all_schedules(paper_nets.figure_5())
    reference = {
        "observables": [observables(result) for result in results.values()],
        "basis": t_invariant_basis(paper_nets.figure_5()),
    }
    assert runs == [json.loads(json.dumps(reference))] * 2
    assert list(cache_dir.iterdir()) == []


def _walked_markings(net, max_tokens):
    """Breadth-first walk over name-keyed token dicts, arc by arc: the
    reachable set under a token cut-off, without the indexed core."""

    def key(tokens):
        return tuple(sorted((place, count) for place, count in tokens.items() if count))

    initial = dict(net.initial_marking.items())
    seen = {key(initial)}
    frontier = deque([initial])
    while frontier:
        tokens = frontier.popleft()
        if any(count > max_tokens for count in tokens.values()):
            continue
        for transition in sorted(net.transitions):
            pre, post = net.pre[transition], net.post[transition]
            if any(tokens.get(place, 0) < weight for place, weight in pre.items()):
                continue
            successor = dict(tokens)
            for place, weight in pre.items():
                successor[place] -= weight
            for place, weight in post.items():
                successor[place] = successor.get(place, 0) + weight
            if key(successor) not in seen:
                seen.add(key(successor))
                frontier.append(successor)
    return seen


def test_pinned_numpy_tier_matches_auto_tier_results():
    """The indexed reachability sweep explores exactly the marking set of a
    breadth-first walk over the arcs, under the same token cut-off, with
    the initial marking first and no marking twice."""
    for builder in (
        paper_nets.figure_5,
        paper_nets.figure_6,
        lambda: paper_nets.figure_7(3),
        lambda: random_marked_graph(5, seed=2),
        lambda: random_choice_net(3, seed=4),
    ):
        net = builder()
        graph = build_reachability_graph(net, max_nodes=20_000, max_tokens_per_place=2)
        assert graph.complete
        rows = [tuple(sorted(marking.items())) for marking in graph.markings]
        assert graph.markings[0] == net.initial_marking
        assert len(rows) == len(set(rows))
        assert set(rows) == _walked_markings(net, 2)


def test_options_cache_key_separates_tiers_not_backend_equivalence():
    """The key has one entry per option that can change the outcome: every
    such option separates keys and equal options share one."""
    base = options_cache_key(SchedulerOptions())
    searched = [f.name for f in fields(SchedulerOptions) if f.name != "termination"]
    assert len(base) == len(searched) == 2
    assert options_cache_key(SchedulerOptions()) == base
    changed = {
        "use_invariant_heuristic": False,
        "max_nodes": 1_000,
    }
    assert set(changed) == set(searched)
    keys = {options_cache_key(SchedulerOptions(**{k: v})) for k, v in changed.items()}
    assert len(keys) == len(changed) and base not in keys
    # a caller-supplied condition has no stable identity: uncacheable
    assert options_cache_key(SchedulerOptions(termination=NodeBudget(10))) is None


# ---------------------------------------------------------------------------
# IncrementalIrrelevance: identity with the row rule
# ---------------------------------------------------------------------------


def _random_path_inputs(n_children, depth, n_places, seed, high=4):
    """Random (children, ancestors, degrees) with planted irrelevant pairs."""
    rng = random.Random(seed)

    def rows(count):
        return [tuple(rng.randrange(high) for _ in range(n_places)) for _ in range(count)]

    children = rows(n_children)
    ancestors = rows(depth)
    degrees = tuple(rng.randrange(3) for _ in range(n_places))
    # plant guaranteed witnesses: child = ancestor + growth on a place the
    # ancestor already saturates
    for child in range(0, n_children, 5):
        ancestor = ancestors[child % depth]
        saturated = [p for p in range(n_places) if ancestor[p] >= degrees[p]]
        if saturated:
            grown = list(ancestor)
            grown[saturated[0]] += 1
            children[child] = tuple(grown)
    return children, ancestors, degrees


def _path_state(ancestors):
    """The (marking index, token-total multiset) SchedulingTree maintains."""
    path_index = {row: node for node, row in enumerate(ancestors)}
    total_counts = dict(Counter(sum(row) for row in ancestors))
    return path_index, total_counts


def _exact_verdicts(children, ancestors, degrees):
    """Definition 4.5 per child three ways: the row rule one ancestor at a
    time, the exact walk and the facade test."""
    names = tuple(f"p{index}" for index in range(len(degrees)))
    inet = SimpleNamespace(place_names=names)
    criterion = IrrelevanceCriterion(degrees=dict(zip(names, degrees)))
    ruled = [False] * len(children)
    for ancestor in ancestors:
        mask = irrelevance_mask(children, ancestor, degrees)
        ruled = [seen or hit for seen, hit in zip(ruled, mask)]
    walked = [
        criterion.witnessed_by(inet, vec, sum(vec), ((sum(a), a) for a in ancestors))
        for vec in children
    ]
    facade = [
        any(
            criterion.is_irrelevant(
                Marking(zip(names, vec)), Marking(zip(names, ancestor))
            )
            for ancestor in ancestors
        )
        for vec in children
    ]
    assert walked == facade == ruled
    return walked


@pytest.mark.parametrize("seed", range(8))
def test_incremental_check_is_bitwise_identical_to_the_broadcast(seed):
    children, ancestors, degrees = _random_path_inputs(40, 60, 9, seed)
    path_index, total_counts = _path_state(ancestors)
    expected = _exact_verdicts(children, ancestors, degrees)
    assert any(expected) and not all(expected)
    checker = IncrementalIrrelevance(degrees, cap=1 << 60)  # never capped
    for i, vec in enumerate(children):
        verdict = checker.check(vec, path_index, total_counts, sum(vec))
        assert verdict is not None
        assert verdict == expected[i], (seed, i)
    assert checker.capped_children == 0
    assert checker.children_checked == len(children)


@pytest.mark.parametrize("seed", range(4))
def test_default_cap_flags_exactly_the_capped_children(seed):
    """None verdicts appear iff the combination count exceeds the cap, and
    every decided child still agrees with the row rule."""
    children, ancestors, degrees = _random_path_inputs(30, 40, 12, seed, high=9)
    path_index, total_counts = _path_state(ancestors)
    expected = _exact_verdicts(children, ancestors, degrees)
    checker = IncrementalIrrelevance(degrees)
    assert checker.cap == IRRELEVANCE_ENUM_CAP
    capped = 0
    for i, vec in enumerate(children):
        combos = 1
        for p, count in enumerate(vec):
            if count > degrees[p]:
                combos *= count - degrees[p] + 1
        verdict = checker.check(vec, path_index, total_counts, sum(vec))
        if combos > IRRELEVANCE_ENUM_CAP:
            assert verdict is None, (seed, i)
            capped += 1
        else:
            assert verdict == expected[i], (seed, i)
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
    path_index, total_counts = _path_state([(3,)])
    assert checker.check(vec, path_index, total_counts, 3) is False
    # the row rule, the walk and the facade agree: they skip the equal marking
    assert _exact_verdicts([vec], [(3,)], (1,)) == [False]


def test_planted_witness_is_found():
    checker = IncrementalIrrelevance(degrees=(1, 0))
    # ancestor (1, 5) is saturated on both places; child grew the first
    path_index, total_counts = _path_state([(1, 5)])
    assert checker.check((2, 5), path_index, total_counts, 7) is True


# ---------------------------------------------------------------------------
# depth-regression: per-child cost must not grow with the path depth
# ---------------------------------------------------------------------------


def test_op_counts_are_independent_of_path_depth():
    """The same children checked against a 500-deep path cost exactly the
    same ops as against a 50-deep path.

    This is the regression the incremental state exists for: the per-node
    ancestor walk is O(depth), so deepening the path would multiply its
    work by ~10x here.  The extra 450 ancestors carry token totals no
    candidate can reach, which the total-multiset filter rejects without a
    single additional probe.
    """
    children, shallow, degrees = _random_path_inputs(40, 50, 9, seed=17)
    deep_tail = tuple(count + 1000 for count in shallow[0])  # totals far above
    deep = shallow + [deep_tail] * 450
    assert len(deep) == 500

    stats = []
    for ancestors in (shallow, deep):
        path_index, total_counts = _path_state(ancestors)
        checker = IncrementalIrrelevance(degrees, cap=1 << 60)
        for vec in children:
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


def _deep_termination(criterion, *extra):
    return CompositeCondition(
        conditions=[criterion, *extra, NodeBudget(max_nodes=200_000)]
    )


def test_depth_500_search_stays_within_constant_per_child_ops():
    """The whole 500-deep search runs on O(1) irrelevance ops per child.

    Asserted on the checker's op counters, not wall clock: every child
    carries exactly one over-degree place one token over its degree
    (``join``), so the candidate set has at most one non-identity member --
    at most one hash probe per child, never the enumeration cap, never the
    O(depth) exact walk.  Under a per-node ancestor walk this search would
    perform ~depth/2 ancestor comparisons per child (~125,000 total); the
    probe bound pins the cost at <= 1 per child.
    """
    net = saturated_pipeline(500)
    assert place_degree(net, "join") == 1
    criterion = IrrelevanceCriterion.for_net(net)
    options = SchedulerOptions(
        termination=_deep_termination(criterion), use_invariant_heuristic=False
    )
    result = find_schedule(net, "src", options=options)
    assert result.success
    stats = criterion._incremental.stats()
    assert stats["children_checked"] >= 500
    assert stats["capped_children"] == 0
    assert stats["candidates_probed"] <= stats["children_checked"]


class _NeverHolds(TerminationCondition):
    """A user leaf that never prunes: only moves a search to ``holds``."""

    name = "never"

    def holds(self, tree, node) -> bool:
        return False


def test_deep_search_is_backend_identical_with_identical_op_profile():
    """A 120-deep search: folded, on the ``holds`` fallback, and on the exact
    walk, with one schedule; the fallback's irrelevance fast path runs on
    the same incremental op profile as the folded search, not on the walk."""
    net = saturated_pipeline(120)
    folded_criterion = IrrelevanceCriterion.for_net(net)
    folded_search, folded = run_search(
        net, "src", _deep_termination(folded_criterion), use_invariant_heuristic=False
    )
    holds_criterion = IrrelevanceCriterion.for_net(net)
    holds_search, via_holds = run_search(
        net,
        "src",
        _deep_termination(holds_criterion, _NeverHolds()),
        use_invariant_heuristic=False,
    )
    _walk_search, walked = run_search(
        net,
        "src",
        _deep_termination(WalkedIrrelevance(**init_fields(holds_criterion))),
        use_invariant_heuristic=False,
    )
    assert folded_search._fold is not None and holds_search._fold is None
    assert folded.success
    assert observables(folded) == observables(via_holds) == observables(walked)
    folded_stats = folded_criterion._incremental.stats()
    assert folded_stats["children_checked"] > 0
    assert folded_stats["capped_children"] == 0
    # the fallback also hands the checker the children with no over-degree
    # place, which the folded search skips on TreeNode.over; the probing
    # children, and every probe, are the same
    holds_stats = holds_criterion._incremental.stats()
    assert holds_stats["decided_by_degree_filter"] > 0

    def probing(stats):
        return (
            stats["children_checked"] - stats["decided_by_degree_filter"],
            stats["candidates_probed"],
            stats["capped_children"],
        )

    assert probing(holds_stats) == probing(folded_stats)


# ---------------------------------------------------------------------------
# user termination conditions take the holds fallback
# ---------------------------------------------------------------------------


class TokenCeilingCondition(TerminationCondition):
    """Example user condition: prune when the total token count exceeds a
    ceiling."""

    name = "token-ceiling"

    def __init__(self, ceiling: int):
        self.ceiling = ceiling
        self.holds_calls = 0

    def holds(self, tree, node) -> bool:
        self.holds_calls += 1
        vec_of = getattr(tree, "vec_of", None)
        if vec_of is not None:
            return sum(vec_of(node)) > self.ceiling
        return sum(tree.marking_of(node).values()) > self.ceiling


@pytest.mark.parametrize("ceiling", [3, 5, 8])
def test_user_maskable_condition_agrees_across_all_backends(ceiling):
    """Under a user leaf the irrelevance criterion decides by its incremental
    fast path inside ``holds``; the same search on the exact walk must find
    the identical schedule (or failure) under every ceiling."""
    net = paper_nets.figure_7(3)
    results = []
    for exact in (False, True):
        ceiling_leaf = TokenCeilingCondition(ceiling)
        termination = default_termination(net, extra=[ceiling_leaf])
        if exact:
            termination = CompositeCondition(
                [
                    WalkedIrrelevance(**init_fields(leaf))
                    if type(leaf) is IrrelevanceCriterion
                    else leaf
                    for leaf in termination.conditions
                ]
            )
        search, result = run_search(net, "a", termination)
        assert search._fold is None
        assert ceiling_leaf.holds_calls > 0
        results.append(observables(result))
    assert results[0] == results[1]


def test_user_condition_takes_the_holds_fallback_on_the_scalar_backend():
    """A leaf the fold does not know stays in ``extra``: the search then
    evaluates the whole condition through ``holds`` on real (probe) nodes
    instead of the folded verdict."""
    net = paper_nets.figure_7(3)
    termination = default_termination(net, extra=[ceiling := TokenCeilingCondition(5)])
    fold = fold_termination(termination, net.indexed())
    assert fold.extra == [ceiling] and fold.irrelevance is not None
    search = _EPSearch(net, "a", SchedulerOptions(termination=termination))
    assert search._fold is None
    search.run()
    assert ceiling.holds_calls > 0


def test_non_maskable_condition_still_forces_scalar():
    class OpaqueCondition(TerminationCondition):
        def holds(self, tree, node):
            return False

    net = paper_nets.figure_5()
    termination = default_termination(net, extra=[OpaqueCondition()])
    assert [type(leaf) for leaf in fold_termination(termination, net.indexed()).extra] == [
        OpaqueCondition
    ]
    search = _EPSearch(net, "a", SchedulerOptions(termination=termination))
    assert search._fold is None and search._incremental is None


# ---------------------------------------------------------------------------
# golden parity: counters and fixture bytes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("net_name,source", ALL_GOLDEN_CASES)
def test_kernel_counters_match_batched_modulo_backend_only(net_name, source):
    """Same search, same accounting: the folded search and its holds-fallback
    twin agree on every counter -- no counter is exempt any more."""
    builder, _sources = GOLDEN_CASES[net_name]
    folded_and_fallback(builder(), source)


def _on_the_holds_fallback(net, source):
    termination = unfolded(default_termination(net))
    return find_schedule(net, source, options=SchedulerOptions(termination=termination))


def _through_find_all_schedules(net, source):
    return find_all_schedules(net, sources=[source])[source]


#: every way the search can derive a golden record; the ids are those of the
#: three backends this sweep compared before the scalar walk became the only
#: one: the default search, the same search on the holds fallback, and the
#: multi-source entry point
DERIVATIONS = {
    "scalar": find_schedule,
    "batched": _on_the_holds_fallback,
    "kernel": _through_find_all_schedules,
}


@pytest.mark.parametrize("backend", ["scalar", "batched", "kernel"])
@pytest.mark.parametrize("net_name,source", ALL_GOLDEN_CASES)
def test_every_backend_reproduces_the_golden_fixture_bytes(
    net_name, source, backend
):
    """The committed fixtures record nothing of how they were derived: each
    derivation re-creates the exact bytes on disk (the byte-identical
    schedule contract, end to end)."""
    regenerated = render_case(derive_case(net_name, source, DERIVATIONS[backend]))
    assert regenerated == fixture_path(net_name, source).read_text()
