"""Microbenchmarks of the Petri-net kernel primitives.

These isolate the operations the scheduling search performs per tree node --
firing a transition, querying the enabled set / enabled ECSs, and hashing a
marking -- on the PFC (video) net and on a paper figure net, so the indexed
core's speedup stays visible in the bench trajectory independently of the
end-to-end scheduler numbers.

Each facade benchmark has an ``_indexed`` twin running the same workload on
the dense core; comparing the two shows what the facade boundary costs.
"""

from __future__ import annotations

import random

from repro.apps import paper_nets
from repro.apps.video import VideoAppConfig, build_video_system
from repro.petrinet.analysis import enabled_ecss
from repro.petrinet.marking import Marking

BENCH_CONFIG = VideoAppConfig(lines_per_frame=4, pixels_per_line=5)


def _video_net():
    return build_video_system(BENCH_CONFIG).net


def _random_walk(net, steps: int, seed: int = 7):
    """A fixed random firing sequence (transition names) from M0."""
    rng = random.Random(seed)
    indexed = net.indexed()
    vec = indexed.initial_vec
    sequence = []
    for _ in range(steps):
        enabled = indexed.enabled_vec(vec)
        if not enabled:
            break
        tid = rng.choice(enabled)
        sequence.append(indexed.transition_names[tid])
        vec = indexed.fire_vec(tid, vec)
    return sequence


# ---------------------------------------------------------------------------
# fire
# ---------------------------------------------------------------------------


def test_fire_facade_pfc(benchmark):
    net = _video_net()
    sequence = _random_walk(net, 200)

    def run():
        marking = net.initial_marking
        for transition in sequence:
            marking = net.fire(transition, marking)
        return marking

    benchmark(run)


def test_fire_indexed_pfc(benchmark):
    net = _video_net()
    indexed = net.indexed()
    sequence = [indexed.transition_index[t] for t in _random_walk(net, 200)]

    def run():
        vec = indexed.initial_vec
        for tid in sequence:
            vec = indexed.fire_vec(tid, vec)
        return vec

    benchmark(run)


def test_fire_facade_figure7(benchmark):
    net = paper_nets.figure_7(4)
    sequence = _random_walk(net, 200)

    def run():
        marking = net.initial_marking
        for transition in sequence:
            marking = net.fire(transition, marking)
        return marking

    benchmark(run)


# ---------------------------------------------------------------------------
# enabled sets
# ---------------------------------------------------------------------------


def test_enabled_transitions_facade_pfc(benchmark):
    net = _video_net()
    marking = net.fire_sequence(_random_walk(net, 50))
    benchmark(net.enabled_transitions, marking)


def test_enabled_scan_indexed_pfc(benchmark):
    net = _video_net()
    indexed = net.indexed()
    vec = indexed.initial_vec
    for tid in (indexed.transition_index[t] for t in _random_walk(net, 50)):
        vec = indexed.fire_vec(tid, vec)
    benchmark(indexed.enabled_vec, vec)


def test_enabled_incremental_indexed_pfc(benchmark):
    """Incremental maintenance along a walk vs. a full scan per step."""
    net = _video_net()
    indexed = net.indexed()
    tids = [indexed.transition_index[t] for t in _random_walk(net, 200)]

    def run():
        vec = indexed.initial_vec
        enabled = frozenset(indexed.enabled_vec(vec))
        for tid in tids:
            vec = indexed.fire_vec(tid, vec)
            enabled = indexed.enabled_after(enabled, tid, vec)
        return enabled

    benchmark(run)


def test_enabled_ecss_pfc(benchmark):
    net = _video_net()
    marking = net.fire_sequence(_random_walk(net, 50))
    benchmark(enabled_ecss, net, marking)


# ---------------------------------------------------------------------------
# marking hashing / interning
# ---------------------------------------------------------------------------


def test_marking_hash_facade_pfc(benchmark):
    net = _video_net()
    marking = net.fire_sequence(_random_walk(net, 50))
    items = dict(marking)

    def run():
        return hash(Marking(items))

    benchmark(run)


def test_marking_hash_indexed_pfc(benchmark):
    net = _video_net()
    indexed = net.indexed()
    vec = indexed.vec_of_marking(net.fire_sequence(_random_walk(net, 50)))
    lst = list(vec)

    def run():
        return hash(tuple(lst))

    benchmark(run)
