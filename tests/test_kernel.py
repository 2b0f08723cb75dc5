"""Incremental irrelevance, declared bounds and golden parity of the EP search.

The fused expansion kernel this module covered is deleted with its tiers;
what it pinned of the scalar search stays here, under the same test names
so the test IDs stay stable:

* :class:`~repro.scheduling.termination.IncrementalIrrelevance` -- identity
  with Definition 4.5 decided two other ways on random inputs (the row
  rule :func:`fold_oracle.irrelevance_mask` one ancestor at a time and the
  exact walk :func:`~repro.scheduling.termination.witnessed_by`), the
  enumeration cap, and depth-*independence* of its op counters (the
  regression the incremental state exists for, asserted on counters rather
  than wall clock);
* channel bounds a user declares -- they prune beside the irrelevance
  criterion, and the search must agree with its walked twin under them;
* what the environment, the options cache key and the reachability sweep
  may not change;
* golden parity -- every counter of the search equals its walked twin on
  every golden case, and every way of running the search reproduces the
  committed golden fixtures byte for byte.
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

import pytest

from fold_oracle import (
    WalkedSearch,
    irrelevance_mask,
    observables,
    searched_and_walked,
    walked_pair,
)
from golden_nets import GOLDEN_CASES, derive_case, fixture_path, render_case
from repro.apps import paper_nets
from repro.apps.paper_nets import SourceKind
from repro.apps.workloads import random_choice_net, random_marked_graph
from repro.cache import options_cache_key
from repro.petrinet.analysis import place_degree
from repro.petrinet.invariants import t_invariant_basis
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
    IncrementalIrrelevance,
    witnessed_by,
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
    """The key has one entry per option, and every option can change the
    outcome: changing any one field separates keys, and equal options
    share one."""
    base = options_cache_key(SchedulerOptions())
    names = [f.name for f in fields(SchedulerOptions)]
    assert len(base) == len(names) == 3
    assert options_cache_key(SchedulerOptions()) == base
    changed = {
        "use_invariant_heuristic": False,
        "max_nodes": 1_000,
        "place_bound": 2,
    }
    assert set(changed) == set(names)
    keys = {options_cache_key(SchedulerOptions(**{k: v})) for k, v in changed.items()}
    assert len(keys) == len(changed) and base not in keys


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
    """Definition 4.5 per child two ways: the row rule one ancestor at a
    time and the exact walk."""
    ruled = [False] * len(children)
    for ancestor in ancestors:
        mask = irrelevance_mask(children, ancestor, degrees)
        ruled = [seen or hit for seen, hit in zip(ruled, mask)]
    walked = [
        witnessed_by(degrees, vec, sum(vec), ((sum(a), a) for a in ancestors))
        for vec in children
    ]
    assert walked == ruled
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
    # the row rule and the walk agree: they skip the equal marking
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
    search = _EPSearch(net, "src", SchedulerOptions(use_invariant_heuristic=False))
    assert search.run().success
    stats = search._incremental.stats()
    assert stats["children_checked"] >= 500
    assert stats["capped_children"] == 0
    assert stats["candidates_probed"] <= stats["children_checked"]


def test_deep_search_is_backend_identical_with_identical_op_profile():
    """A 120-deep search and its walked twin find one schedule; the search
    decides every child on the incremental checker, one probe at most per
    child, never on the walk, and a second search repeats its op profile."""
    net = saturated_pipeline(120)
    search, result, _walked = walked_pair(net, "src", use_invariant_heuristic=False)
    assert result.success
    stats = search._incremental.stats()
    assert stats["children_checked"] > 0
    assert stats["capped_children"] == 0
    assert stats["candidates_probed"] <= stats["children_checked"]
    again = _EPSearch(net, "src", SchedulerOptions(use_invariant_heuristic=False))
    again.run()
    assert again._incremental.stats() == stats


# ---------------------------------------------------------------------------
# channel bounds a user declares prune beside the irrelevance criterion
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("ceiling", [3, 5, 8])
def test_user_maskable_condition_agrees_across_all_backends(ceiling):
    """Figure 7 (k=3) with a channel bound of ``ceiling`` declared on every
    place: the bounds prune beside the irrelevance criterion, and the search
    and its walked twin agree under every ceiling -- at 3 and 5 on hundreds
    of irrelevant verdicts before the budget runs out, at 8 on a schedule."""
    net = paper_nets.figure_7(3)
    for place in net.places.values():
        place.bound = ceiling
    _search, result, walked = walked_pair(net, "a", max_nodes=2000)
    assert result.success == (ceiling == 8)
    assert (walked.irrelevant_verdicts > 0) == (ceiling < 8)
    if result.success:
        assert all(
            max(node.marking.values(), default=0) <= ceiling
            for node in result.schedule.nodes
        )


# ---------------------------------------------------------------------------
# golden parity: counters and fixture bytes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("net_name,source", ALL_GOLDEN_CASES)
def test_kernel_counters_match_batched_modulo_backend_only(net_name, source):
    """Same search, same accounting: the search and its walked twin agree on
    every counter -- no counter is exempt any more."""
    builder, _sources = GOLDEN_CASES[net_name]
    searched_and_walked(builder(), source)


def _on_the_walked_twin(net, source):
    return WalkedSearch(net, source, SchedulerOptions()).run()


def _through_find_all_schedules(net, source):
    return find_all_schedules(net, sources=[source])[source]


#: every way the search can derive a golden record; the ids are those of the
#: three backends this sweep compared before the scalar walk became the only
#: one: the default search, its walked twin, and the multi-source entry point
DERIVATIONS = {
    "scalar": find_schedule,
    "batched": _on_the_walked_twin,
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
