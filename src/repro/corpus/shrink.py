"""Spec-level shrinking of failing corpus cases.

The reducers transform the *pure-data* :class:`ScenarioSpec` -- never the
emitted FlowC text -- so every candidate is rebuilt through the exact same
pipeline the original travelled.  A reduction is accepted only when the
candidate still fails in the *same pipeline stage* as the original (a case
that started as a ``compare`` divergence must not "shrink" into a parse
error), which is the classic delta-debugging validity criterion.

The result records the accepted reduction steps alongside the final spec,
so a triage file is both a minimal reproducer and a history of how it was
reached from the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.corpus.differential import CaseOutcome, run_case
from repro.corpus.topologies import (
    EdgeSpec,
    ProcessSpec,
    ScenarioSpec,
    SpecError,
    SubsystemSpec,
    check_spec,
)

Runner = Callable[[ScenarioSpec], CaseOutcome]


# ---------------------------------------------------------------------------
# reduction candidates
# ---------------------------------------------------------------------------


def _keep_single_subsystem(spec: ScenarioSpec) -> Iterator[Tuple[str, ScenarioSpec]]:
    if len(spec.subsystems) <= 1:
        return
    for index, sub in enumerate(spec.subsystems):
        yield (
            f"keep-subsystem[{sub.trigger}]",
            replace(spec, subsystems=(sub,)),
        )


def _drop_sink_process(spec: ScenarioSpec) -> Iterator[Tuple[str, ScenarioSpec]]:
    """Remove one leaf process; its upstream becomes the new sink."""
    for sindex, sub in enumerate(spec.subsystems):
        forward_sources = {e.source for e in sub.edges if not e.feedback}
        for proc in sub.processes:
            if proc.name == sub.trigger or proc.name in forward_sources:
                continue
            processes = tuple(p for p in sub.processes if p.name != proc.name)
            edges = tuple(
                e for e in sub.edges if proc.name not in (e.source, e.target)
            )
            subsystems = (
                spec.subsystems[:sindex]
                + (replace(sub, processes=processes, edges=edges),)
                + spec.subsystems[sindex + 1 :]
            )
            yield (f"drop-process[{proc.name}]", replace(spec, subsystems=subsystems))


def _truncate_stimulus(spec: ScenarioSpec) -> Iterator[Tuple[str, ScenarioSpec]]:
    if spec.stimulus_length > 1:
        shorter = max(1, spec.stimulus_length // 2)
        yield (f"stimulus[{shorter}]", replace(spec, stimulus_length=shorter))


def _flatten_rates(spec: ScenarioSpec) -> Iterator[Tuple[str, ScenarioSpec]]:
    """Repetitions, items and bursts all to 1 (keeps arm restrictions)."""
    if all(
        proc.repetitions == 1
        for sub in spec.subsystems
        for proc in sub.processes
    ) and all(
        edge.items == 1 and edge.write_burst == 1 and edge.read_burst == 1
        for sub in spec.subsystems
        for edge in sub.edges
    ):
        return
    subsystems = tuple(
        replace(
            sub,
            processes=tuple(replace(p, repetitions=1) for p in sub.processes),
            edges=tuple(
                replace(e, items=1, write_burst=1, read_burst=1) for e in sub.edges
            ),
        )
        for sub in spec.subsystems
    )
    yield ("flatten-rates", replace(spec, subsystems=subsystems))


def _disable_branches(spec: ScenarioSpec) -> Iterator[Tuple[str, ScenarioSpec]]:
    """Drop data-dependent branches where no arm-restricted edge needs them."""
    changed = False
    subsystems = []
    for sub in spec.subsystems:
        armed = {e.source for e in sub.edges if e.arm is not None}
        processes = []
        for proc in sub.processes:
            if proc.branch and proc.name not in armed:
                processes.append(replace(proc, branch=False))
                changed = True
            else:
                processes.append(proc)
        subsystems.append(replace(sub, processes=tuple(processes)))
    if changed:
        yield ("disable-branches", replace(spec, subsystems=tuple(subsystems)))


def _drop_bounds(spec: ScenarioSpec) -> Iterator[Tuple[str, ScenarioSpec]]:
    if all(e.bound is None for sub in spec.subsystems for e in sub.edges):
        return
    subsystems = tuple(
        replace(sub, edges=tuple(replace(e, bound=None) for e in sub.edges))
        for sub in spec.subsystems
    )
    yield ("drop-bounds", replace(spec, subsystems=subsystems))


#: Reduction passes in the order tried each round: structural reductions
#: first (they shrink fastest), cosmetic ones last.
REDUCTIONS: Tuple[Callable[[ScenarioSpec], Iterator[Tuple[str, ScenarioSpec]]], ...] = (
    _keep_single_subsystem,
    _drop_sink_process,
    _flatten_rates,
    _disable_branches,
    _drop_bounds,
    _truncate_stimulus,
)


# ---------------------------------------------------------------------------
# the shrink loop
# ---------------------------------------------------------------------------


@dataclass
class ShrinkResult:
    """A minimal reproducer plus the path that led to it."""

    original: ScenarioSpec
    spec: ScenarioSpec
    outcome: CaseOutcome
    steps: List[str] = field(default_factory=list)
    attempts: int = 0

    @property
    def reduced(self) -> bool:
        return bool(self.steps)

    def to_dict(self) -> Dict[str, object]:
        return {
            "steps": self.steps,
            "attempts": self.attempts,
            "original_processes": self.original.size(),
            "final_processes": self.spec.size(),
        }


def shrink_case(
    spec: ScenarioSpec,
    failure: CaseOutcome,
    *,
    run: Runner = run_case,
    max_attempts: int = 200,
) -> ShrinkResult:
    """Greedily reduce ``spec`` while it keeps failing in ``failure.stage``.

    Runs reduction passes to a fixed point: each round re-tries every pass
    against the current best spec and restarts whenever one is accepted.
    ``max_attempts`` bounds the number of candidate executions, so shrinking
    a pathological case degrades to "less reduced", never to "hangs CI".
    """
    if failure.passed or failure.stage is None:
        raise ValueError("shrink_case needs a failing outcome with a stage")
    best_spec, best_outcome = spec, failure
    steps: List[str] = []
    attempts = 0
    improved = True
    while improved and attempts < max_attempts:
        improved = False
        for reduction in REDUCTIONS:
            for step, candidate in reduction(best_spec):
                if attempts >= max_attempts:
                    break
                try:
                    check_spec(candidate)
                except SpecError:
                    continue
                attempts += 1
                outcome = run(candidate)
                if not outcome.passed and outcome.stage == failure.stage:
                    best_spec, best_outcome = candidate, outcome
                    steps.append(step)
                    improved = True
                    break
            if improved:
                break
    return ShrinkResult(
        original=spec,
        spec=best_spec,
        outcome=best_outcome,
        steps=steps,
        attempts=attempts,
    )
