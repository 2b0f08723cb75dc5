"""Seeded, reproducible scenario generation over the topology families.

Every generator draws exclusively from an explicit :class:`random.Random`
seeded from the case seed -- the module-global ``random`` state is never
touched and nothing depends on dict/set iteration order, so the same seed
produces the same :class:`~repro.corpus.topologies.ScenarioSpec` (and hence a
byte-identical FlowC program) in any process regardless of
``PYTHONHASHSEED``.  ``tests/test_generator_determinism.py`` pins this with a
two-subprocess byte-identity check.

The families go beyond the exemplar generators referenced in SNIPPETS.md
(AMC-RTB's task-set generator, digital-twin-scheduler's topology generator):
each case is a *complete FlowC system* -- processes, channels, environment
ports and a stimulus script -- not just a task graph, so it can be pushed
through the entire pipeline down to simulated traces.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.corpus.topologies import (
    EdgeSpec,
    ProcessSpec,
    ScenarioSpec,
    SubsystemSpec,
    check_spec,
    lcm,
)

#: The topology families the corpus cycles through.
FAMILIES: Tuple[str, ...] = (
    "chain",
    "tree",
    "fork_join",
    "layered",
    "diamond",
    "feedback",
    "multi_source",
)

#: Default base seed of the smoke corpus (fixed so CI runs are comparable).
DEFAULT_SEED = 20260808

#: Tokens per environment event on one channel never exceed this.
_MAX_ITEMS = 8


def _divisors(value: int) -> List[int]:
    return [d for d in range(1, value + 1) if value % d == 0]


def _finish_processes(
    rng: random.Random,
    names: Sequence[str],
    trigger: str,
    *,
    reps: Optional[Dict[str, int]] = None,
    forced_branch: Sequence[str] = (),
    branch_probability: float = 0.35,
    wcet_probability: float = 0.3,
) -> Tuple[ProcessSpec, ...]:
    """Draw repetitions / branch flags / constants for a process list."""
    specs: List[ProcessSpec] = []
    for name in names:
        repetitions = 1
        if name != trigger:
            repetitions = (reps or {}).get(name, rng.choice((1, 1, 1, 2)))
        branch = name in forced_branch or rng.random() < branch_probability
        # optional WCET(n) annotation: exercises the cost objective's
        # latency/jitter terms without changing schedulability or traces
        wcet = rng.randint(1, 12) if rng.random() < wcet_probability else None
        specs.append(
            ProcessSpec(
                name=name,
                repetitions=repetitions,
                branch=branch,
                const_a=rng.randint(2, 6),
                const_b=rng.randint(1, 9),
                wcet=wcet,
            )
        )
    return tuple(specs)


def _finish_edges(
    rng: random.Random,
    raw_edges: Sequence[Tuple[str, str]],
    processes: Sequence[ProcessSpec],
    prefix: str,
    *,
    feedback_pairs: Sequence[Tuple[str, str]] = (),
    bound_probability: float = 0.3,
) -> Tuple[EdgeSpec, ...]:
    """Assign rate-consistent items / bursts / bounds to raw edge pairs."""
    rep_of = {proc.name: proc.repetitions for proc in processes}
    feedback = set(feedback_pairs)
    edges: List[EdgeSpec] = []
    for index, (source, target) in enumerate(raw_edges):
        base = lcm(rep_of[source], rep_of[target])
        items = base * rng.choice((1, 1, 2))
        if items > _MAX_ITEMS:
            items = base
        write_burst = rng.choice(_divisors(items // rep_of[source]))
        read_burst = rng.choice(_divisors(items // rep_of[target]))
        bound = None
        if rng.random() < bound_probability:
            bound = items + rng.choice((0, 1))
        edges.append(
            EdgeSpec(
                name=f"{prefix}c{index}",
                source=source,
                target=target,
                items=items,
                write_burst=write_burst,
                read_burst=read_burst,
                bound=bound,
                feedback=(source, target) in feedback,
            )
        )
    return tuple(edges)


# ---------------------------------------------------------------------------
# raw topology drawers: (names, trigger, edge pairs, forced branches)
# ---------------------------------------------------------------------------


def _draw_chain(rng: random.Random, prefix: str):
    length = rng.randint(2, 5)
    names = [f"{prefix}p{i}" for i in range(length)]
    pairs = [(names[i], names[i + 1]) for i in range(length - 1)]
    return names, names[0], pairs, ()


def _draw_tree(rng: random.Random, prefix: str):
    names = [f"{prefix}p0"]
    pairs: List[Tuple[str, str]] = []
    frontier = [names[0]]
    while frontier and len(names) < 7:
        parent = frontier.pop(0)
        fanout = rng.randint(1, 3) if parent == names[0] else rng.randint(0, 2)
        for _ in range(fanout):
            if len(names) >= 7:
                break
            child = f"{prefix}p{len(names)}"
            names.append(child)
            pairs.append((parent, child))
            frontier.append(child)
    if not pairs:  # degenerate draw: force one child
        child = f"{prefix}p1"
        names.append(child)
        pairs.append((names[0], child))
    return names, names[0], pairs, ()


def _draw_fork_join(rng: random.Random, prefix: str):
    branches = rng.randint(2, 3)
    root = f"{prefix}p0"
    mids = [f"{prefix}p{i + 1}" for i in range(branches)]
    join = f"{prefix}p{branches + 1}"
    names = [root, *mids, join]
    pairs = [(root, mid) for mid in mids] + [(mid, join) for mid in mids]
    if rng.random() < 0.5:
        tail = f"{prefix}p{branches + 2}"
        names.append(tail)
        pairs.append((join, tail))
    return names, root, pairs, ()


def _draw_layered(rng: random.Random, prefix: str):
    widths = [1] + [rng.randint(1, 3) for _ in range(rng.randint(2, 3))]
    layers: List[List[str]] = []
    count = 0
    for width in widths:
        layers.append([f"{prefix}p{count + i}" for i in range(width)])
        count += width
    names = [name for layer in layers for name in layer]
    pairs: List[Tuple[str, str]] = []
    for upper, lower in zip(layers, layers[1:]):
        chosen: set[Tuple[str, str]] = set()
        for target in lower:
            chosen.add((rng.choice(upper), target))
        for source in upper:
            if not any(pair[0] == source for pair in chosen):
                chosen.add((source, rng.choice(lower)))
        pairs.extend(sorted(chosen))
    return names, layers[0][0], pairs, ()


def _draw_diamond(rng: random.Random, prefix: str):
    root, left, right, join = (f"{prefix}p{i}" for i in range(4))
    names = [root, left, right, join]
    pairs = [(root, left), (root, right), (left, join), (right, join)]
    return names, root, pairs, (root,)


_DRAWERS = {
    "chain": _draw_chain,
    "tree": _draw_tree,
    "fork_join": _draw_fork_join,
    "layered": _draw_layered,
    "diamond": _draw_diamond,
}


def _feedback_subsystem(rng: random.Random, prefix: str) -> SubsystemSpec:
    """The Section 7.2 shape: a forward burst channel plus a backward ack.

    Fixed-bound loops make the case false-path-prone under a compiler that
    models every loop as a data-dependent choice; our constant-bound
    unrolling resolves it, so the case is schedulable -- and the corpus pins
    that it stays so.
    """
    producer = f"{prefix}p0"
    consumer = f"{prefix}p1"
    names = [producer, consumer]
    forward_items = rng.choice((4, 6, 8))
    ack_items = rng.choice((1, 2))
    processes = tuple(
        ProcessSpec(
            name=name,
            repetitions=1,
            branch=False,
            const_a=rng.randint(2, 6),
            const_b=rng.randint(1, 9),
        )
        for name in names
    )
    write_burst = rng.choice(_divisors(forward_items))
    edges = (
        EdgeSpec(
            name=f"{prefix}c0",
            source=producer,
            target=consumer,
            items=forward_items,
            write_burst=write_burst,
            read_burst=1,
            bound=forward_items if rng.random() < 0.5 else None,
        ),
        EdgeSpec(
            name=f"{prefix}c1",
            source=consumer,
            target=producer,
            items=ack_items,
            feedback=True,
        ),
    )
    return SubsystemSpec(trigger=producer, processes=processes, edges=edges)


def _draw_subsystem(rng: random.Random, family: str, prefix: str = "") -> SubsystemSpec:
    if family == "feedback":
        return _feedback_subsystem(rng, prefix)
    names, trigger, pairs, forced = _DRAWERS[family](rng, prefix)
    processes = _finish_processes(rng, names, trigger, forced_branch=forced)
    edges = _finish_edges(rng, pairs, processes, prefix)
    return SubsystemSpec(trigger=trigger, processes=processes, edges=edges)


def generate_spec(seed: int, family: Optional[str] = None) -> ScenarioSpec:
    """Generate one validated scenario spec from ``seed``.

    ``family`` defaults to cycling deterministically through
    :data:`FAMILIES` by seed, so a contiguous seed range covers every
    family.

    Example::

        >>> spec = generate_spec(7)
        >>> spec == generate_spec(7)
        True
    """
    family = family or FAMILIES[seed % len(FAMILIES)]
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r} (expected one of {FAMILIES})")
    rng = random.Random(seed)
    if family == "multi_source":
        count = rng.randint(2, 3)
        inner = [rng.choice(("chain", "diamond", "fork_join")) for _ in range(count)]
        subsystems = tuple(
            _draw_subsystem(rng, inner[index], prefix=f"s{index}_")
            for index in range(count)
        )
    else:
        subsystems = (_draw_subsystem(rng, family),)
    spec = ScenarioSpec(
        seed=seed,
        family=family,
        subsystems=subsystems,
        stimulus_length=rng.randint(2, 4),
    )
    check_spec(spec)
    return spec


def generate_corpus(
    count: int,
    *,
    seed: int = DEFAULT_SEED,
    families: Optional[Sequence[str]] = None,
) -> List[ScenarioSpec]:
    """Generate ``count`` specs cycling through the requested families.

    Case ``i`` uses seed ``seed + i`` and family ``families[i % len]``, so
    corpora are reproducible, extendable (a larger count is a superset) and
    family-balanced.

    Example::

        >>> [s.family for s in generate_corpus(3, seed=0)]
        ['chain', 'tree', 'fork_join']
    """
    chosen = tuple(families) if families else FAMILIES
    for family in chosen:
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
    return [
        generate_spec(seed + index, chosen[index % len(chosen)])
        for index in range(count)
    ]


def make_unschedulable_spec(seed: int = 0) -> ScenarioSpec:
    """The paper's Figure 4b situation: branch arms feed *different* channels.

    ``u1`` writes channel ``uc1`` on one arm of its data-dependent choice and
    channel ``uc2`` on the other, while ``u2`` joins by reading *both* every
    firing.  Whenever the environment keeps resolving the choice one way, the
    other channel starves and the taken one accumulates without bound, so no
    cyclic finite-memory schedule exists.  The harness pins that failure
    instead of trace equivalence.

    Note a merely count-skewed branch (both arms writing the *same* channel,
    different amounts) is NOT sufficient: the scheduler legitimately handles
    it with fill-parity await states.  The arms must diverge in *which*
    channel they feed.
    """
    rng = random.Random(seed)
    processes = (
        ProcessSpec(name="u0", repetitions=1, branch=False, const_a=3, const_b=5),
        ProcessSpec(
            name="u1",
            repetitions=1,
            branch=True,
            const_a=rng.randint(2, 6),
            const_b=rng.randint(1, 9),
        ),
        ProcessSpec(name="u2", repetitions=1, branch=False, const_a=2, const_b=1),
    )
    edges = (
        EdgeSpec(name="uc0", source="u0", target="u1", items=1),
        EdgeSpec(name="uc1", source="u1", target="u2", items=1, arm=0),
        EdgeSpec(name="uc2", source="u1", target="u2", items=1, arm=1),
    )
    spec = ScenarioSpec(
        seed=seed,
        family="chain",
        subsystems=(SubsystemSpec(trigger="u0", processes=processes, edges=edges),),
        stimulus_length=2,
        name=f"unschedulable_{seed}",
    )
    check_spec(spec)
    return spec
