"""Whole-pipeline differential execution of corpus cases.

One corpus case travels the *entire* toolchain: FlowC parse -> compile ->
link -> EP schedule -> canonical-serialization round-trip -> codegen task
synthesis -> the two simulators of :mod:`repro.runtime.simulation`.  The
property asserted at the end is the paper's actual claim: the synthesized
quasi-static tasks are *observationally equivalent* to the original
concurrent specification -- normalized I/O traces per environment channel
match under a shared input script, not merely "a schedule was found".

Failures carry the pipeline stage they died in (:data:`STAGES`), which is
what the shrinker in :mod:`repro.corpus.shrink` preserves while reducing a
case, and what triage files report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.corpus.topologies import CorpusCase, ScenarioSpec, build_case
from repro.flowc.linker import LinkedSystem, link
from repro.runtime.channels import TraceRecorder, TracingSink
from repro.runtime.simulation import MultiTaskSimulation, SingleTaskSimulation
from repro.scheduling.ep import SchedulerOptions, find_all_schedules
from repro.scheduling.schedule import Schedule
from repro.scheduling.serialize import verify_roundtrip

#: EP node budget per search.  Every schedulable corpus case closes in a few
#: hundred nodes (the smoke sweep's worst case is ~650), so this is ~30x
#: headroom -- while keeping the expected-unschedulable cases, whose searches
#: otherwise exhaust a >100k-node space before failing, cheap enough for CI.
MAX_NODES = 20_000

#: Pipeline stages in order; failures name the first stage that broke.
STAGES: Tuple[str, ...] = (
    "build",      # FlowC parse / compile / link / spec validation
    "schedule",   # EP search, serialization round-trip
    "codegen",    # task construction: wiring, hoisted code, one task per source
    "simulate",   # either simulator raised while executing
    "compare",    # trace / output / occupancy disagreement
)

Trace = Dict[str, List[Tuple[Any, ...]]]


# ---------------------------------------------------------------------------
# trace normalization
# ---------------------------------------------------------------------------


def normalize_trace(trace: Union[TraceRecorder, Mapping[str, Sequence[Sequence[Any]]]]) -> Trace:
    """The normal form compared across implementations.

    Per-channel sequences of write events (each event the tuple of values of
    one ``WRITE_DATA``).  Global interleaving across *independent* channels
    is deliberately erased -- the round-robin baseline and the synthesized
    task legally emit to unrelated channels in different global orders --
    while the order of events *within* one channel is preserved and
    significant.
    """
    if isinstance(trace, TraceRecorder):
        return trace.by_channel()
    return {
        port: [tuple(event) for event in events]
        for port, events in trace.items()
    }


def traces_equivalent(
    left: Union[TraceRecorder, Mapping[str, Sequence[Sequence[Any]]]],
    right: Union[TraceRecorder, Mapping[str, Sequence[Sequence[Any]]]],
) -> bool:
    """True when both traces normalize to the same per-channel sequences."""
    return normalize_trace(left) == normalize_trace(right)


def trace_diff(
    left: Union[TraceRecorder, Mapping[str, Sequence[Sequence[Any]]]],
    right: Union[TraceRecorder, Mapping[str, Sequence[Sequence[Any]]]],
) -> Optional[str]:
    """Human-readable description of the first divergence, or None."""
    a, b = normalize_trace(left), normalize_trace(right)
    if a == b:
        return None
    for port in sorted(set(a) | set(b)):
        if port not in a:
            return f"channel {port!r}: present only on the right"
        if port not in b:
            return f"channel {port!r}: present only on the left"
        if a[port] == b[port]:
            continue
        for index, (eva, evb) in enumerate(zip(a[port], b[port])):
            if eva != evb:
                return f"channel {port!r} event {index}: {eva!r} != {evb!r}"
        return f"channel {port!r}: {len(a[port])} vs {len(b[port])} events"
    return "traces differ"  # pragma: no cover - defensive


# ---------------------------------------------------------------------------
# case execution
# ---------------------------------------------------------------------------


@dataclass
class CaseOutcome:
    """Result of pushing one case through the pipeline."""

    name: str
    family: str
    seed: int
    passed: bool
    schedulable: bool
    stage: Optional[str] = None
    message: str = ""
    elapsed_seconds: float = 0.0
    detail: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "family": self.family,
            "seed": self.seed,
            "passed": self.passed,
            "schedulable": self.schedulable,
            "stage": self.stage,
            "message": self.message,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "detail": self.detail,
        }


def _fail(
    spec: ScenarioSpec,
    stage: str,
    message: str,
    started: float,
    *,
    schedulable: bool = False,
    detail: Optional[Dict[str, Any]] = None,
) -> CaseOutcome:
    return CaseOutcome(
        name=spec.label(),
        family=spec.family,
        seed=spec.seed,
        passed=False,
        schedulable=schedulable,
        stage=stage,
        message=message,
        elapsed_seconds=time.perf_counter() - started,
        detail=detail or {},
    )


def _schedule(
    linked: LinkedSystem,
    sources: Sequence[str],
    spec: ScenarioSpec,
    started: float,
) -> Union[CaseOutcome, Tuple[Dict[str, Schedule], Dict[str, bool]]]:
    """One EP search per source; returns schedules or a failure outcome.

    Every schedule found must survive the canonical serialization round
    trip byte for byte.
    """
    results = find_all_schedules(
        linked.net,
        options=SchedulerOptions(max_nodes=MAX_NODES),
        sources=list(sources),
    )
    success = {source: bool(results[source].success) for source in sources}
    schedules: Dict[str, Schedule] = {}
    for source in sources:
        if not success[source]:
            continue
        schedule = results[source].schedule
        try:
            verify_roundtrip(schedule)
        except ValueError as error:
            return _fail(spec, "schedule", str(error), started)
        schedules[source] = schedule
    return schedules, success


def run_case(spec: ScenarioSpec) -> CaseOutcome:
    """Run one scenario spec through the whole pipeline."""
    started = time.perf_counter()
    try:
        case: CorpusCase = build_case(spec)
        linked = link(case.network)
    except Exception as error:  # noqa: BLE001 - any build crash is the finding
        return _fail(spec, "build", f"{type(error).__name__}: {error}", started)

    manifest = case.manifest
    sources = manifest["source_transitions"]
    outcome = _schedule(linked, sources, spec, started)
    if isinstance(outcome, CaseOutcome):
        return outcome
    schedules, success = outcome

    expect_schedulable = bool(manifest["expected_schedulable"])
    all_schedulable = all(success.values())
    if all_schedulable != expect_schedulable:
        return _fail(
            spec,
            "schedule",
            f"expected schedulable={expect_schedulable} but per-source success={success}",
            started,
            schedulable=all_schedulable,
        )
    if not expect_schedulable:
        # expected-failure case: no source has a schedule, done
        return CaseOutcome(
            name=spec.label(),
            family=spec.family,
            seed=spec.seed,
            passed=True,
            schedulable=False,
            elapsed_seconds=time.perf_counter() - started,
            detail={"per_source_success": success},
        )

    stimulus = manifest["stimulus"]
    try:
        single = SingleTaskSimulation(linked, schedules=schedules)
    except Exception as error:  # noqa: BLE001
        return _fail(
            spec, "codegen", f"{type(error).__name__}: {error}", started, schedulable=True
        )

    multi_recorder, single_recorder = TraceRecorder(), TraceRecorder()
    try:
        multi = MultiTaskSimulation(linked, stimulus=stimulus)
        for port in manifest["outputs"]:
            multi.replace_sink(port, TracingSink(port, multi_recorder))
            single.replace_sink(port, TracingSink(port, single_recorder))
        multi_result = multi.run()
        single_result = single.run(stimulus)
    except Exception as error:  # noqa: BLE001
        return _fail(
            spec, "simulate", f"{type(error).__name__}: {error}", started, schedulable=True
        )

    expected_events = sum(len(values) for values in stimulus.values())
    problems: List[str] = []
    diff = trace_diff(multi_recorder, single_recorder)
    if diff is not None:
        problems.append(f"trace divergence: {diff}")
    if multi_result.outputs.by_port != single_result.outputs.by_port:
        problems.append("output values diverge between implementations")
    if multi_result.events_served != expected_events:
        problems.append(
            f"multi-task served {multi_result.events_served}/{expected_events} events"
        )
    if single_result.events_served != expected_events:
        problems.append(
            f"single-task served {single_result.events_served}/{expected_events} events"
        )
    # Proposition 4.2: the schedule returns to its initial marking after each
    # served event, so synthesized-task channels never exceed their per-event
    # token count.  The round-robin baseline gets the whole stimulus up front
    # and may legally pipeline events, so the bound applies to it per run.
    expected_items = manifest["expected_channel_items"]
    for channel, occupancy in sorted(single_result.channel_max_occupancy.items()):
        bound = expected_items.get(channel)
        if bound is not None and occupancy > bound:
            problems.append(
                f"single-task channel {channel!r} reached {occupancy} items "
                f"(> {bound} per event)"
            )
    for channel, occupancy in sorted(multi_result.channel_max_occupancy.items()):
        per_event = expected_items.get(channel)
        if per_event is not None and occupancy > per_event * expected_events:
            problems.append(
                f"multi-task channel {channel!r} reached {occupancy} items "
                f"(> {per_event} per event x {expected_events} events)"
            )
    if problems:
        return _fail(
            spec,
            "compare",
            "; ".join(problems),
            started,
            schedulable=True,
            detail={
                "multi_outputs": multi_result.outputs.by_port,
                "single_outputs": single_result.outputs.by_port,
            },
        )
    return CaseOutcome(
        name=spec.label(),
        family=spec.family,
        seed=spec.seed,
        passed=True,
        schedulable=True,
        elapsed_seconds=time.perf_counter() - started,
        detail={
            "events": expected_events,
            "outputs": {port: len(v) for port, v in single_result.outputs.by_port.items()},
        },
    )


# ---------------------------------------------------------------------------
# corpus-level run
# ---------------------------------------------------------------------------


@dataclass
class CorpusReport:
    """Aggregate of one corpus sweep."""

    outcomes: List[CaseOutcome]
    elapsed_seconds: float

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def passed(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.passed)

    @property
    def failures(self) -> List[CaseOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.passed]

    @property
    def pass_rate(self) -> float:
        return self.passed / self.total if self.total else 1.0

    def by_family(self) -> Dict[str, Tuple[int, int]]:
        """family -> (passed, total)."""
        table: Dict[str, Tuple[int, int]] = {}
        for outcome in self.outcomes:
            passed, total = table.get(outcome.family, (0, 0))
            table[outcome.family] = (passed + (1 if outcome.passed else 0), total + 1)
        return table

    def to_dict(self) -> Dict[str, Any]:
        return {
            "cases": self.total,
            "passed": self.passed,
            "pass_rate": round(self.pass_rate, 4),
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "by_family": {
                family: {"passed": passed, "cases": total}
                for family, (passed, total) in sorted(self.by_family().items())
            },
            "failures": [outcome.to_dict() for outcome in self.failures],
        }


def run_corpus(
    specs: Sequence[ScenarioSpec],
    *,
    progress: Optional[Any] = None,
) -> CorpusReport:
    """Run every spec through :func:`run_case`; ``progress`` is an optional
    callable invoked with each finished :class:`CaseOutcome`."""
    started = time.perf_counter()
    outcomes: List[CaseOutcome] = []
    for spec in specs:
        outcome = run_case(spec)
        outcomes.append(outcome)
        if progress is not None:
            progress(outcome)
    return CorpusReport(outcomes=outcomes, elapsed_seconds=time.perf_counter() - started)
