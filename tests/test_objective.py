"""Tests of the enumerate->score->select objective layer.

Four contracts, mirroring the refactor's acceptance bar:

* ``objective="first"`` (the default) is byte-identical to the
  pre-objective scheduler -- the enumeration machinery must be
  unobservable unless asked for;
* ``objective="cost"`` selection is deterministic across termination
  paths, repeated runs and candidate limits (same winner, same score), and
  on the pinned corpus net it finds a schedule *strictly cheaper* than the
  first-found one;
* the static score and the single-task prediction agree with the ground
  truth: `predict_single_task` matches `SingleTaskSimulation`'s counters
  on corpus cases (the corpus `predict` stage holds this per generated
  case; here we pin one case directly);
* the option threads through every layer -- serialization records, the
  warm-start cache key, the daemon wire protocol -- and the WCET
  annotations feeding the timing terms survive the FlowC -> net trip.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from fold_oracle import unfolded
from repro.apps.paper_nets import figure_5, figure_8, simple_pipeline
from repro.corpus.generator import generate_spec
from repro.corpus.topologies import build_case
from repro.flowc.linker import link
from repro.flowc.parser import FlowCParseError, parse_process
from repro.petrinet.fingerprint import structural_fingerprint
from repro.scheduling.ep import OBJECTIVES, SchedulerOptions, find_schedule
from repro.scheduling.objective import cost_breakdown, score_schedule
from repro.scheduling.serialize import (
    result_from_record,
    result_to_record,
    schedule_fingerprint,
)
from repro.scheduling.termination import (
    CompositeCondition,
    TerminationCondition,
    default_termination,
)
from repro.scheduling.warmstart import options_cache_key
from repro.serve.protocol import ProtocolError, options_from_dict

#: Corpus case where the cost objective strictly beats first-found
#: (also pinned in the bench's ``objective`` section).
WIN_SEED, WIN_FAMILY, WIN_SOURCE = 20260877, "multi_source", "src.s2_p0.ev_s2_p0"


#: Termination paths every selection must be independent of.  The ids are
#: those of the three EP backends these tests compared before the scalar walk
#: became the only search: "scalar" is the default folded search, "batched"
#: the same search on the ``termination.holds`` fallback with every leaf
#: re-typed, "kernel" the holds fallback with the built-in leaves kept beside
#: a user leaf that never prunes.
BACKENDS = ("scalar", "batched", "kernel")


class _NeverPrunes(TerminationCondition):
    name = "never-prunes"

    def holds(self, tree, node) -> bool:
        return False


def _options(backend, net, **options):
    if backend == "scalar":
        return SchedulerOptions(**options)
    termination = default_termination(net)
    if backend == "batched":
        termination = unfolded(termination)
    else:
        termination = CompositeCondition([*termination.conditions, _NeverPrunes()])
    return SchedulerOptions(termination=termination, **options)


def _paper_cases():
    for build in (figure_5, figure_8, simple_pipeline):
        net = build()
        yield build.__name__, net, net.uncontrollable_sources()[0]


def _win_net():
    spec = generate_spec(WIN_SEED, WIN_FAMILY)
    return link(build_case(spec).network).net


# ---------------------------------------------------------------------------
# objective="first": exact backward compatibility
# ---------------------------------------------------------------------------


class TestFirstObjective:
    def test_first_is_the_default(self):
        options = SchedulerOptions()
        assert options.objective == "first"
        assert "first" in OBJECTIVES and "cost" in OBJECTIVES

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_first_matches_default_result(self, backend):
        for name, net, source in _paper_cases():
            default = find_schedule(net, source, options=_options(backend, net))
            explicit = find_schedule(
                net, source, options=_options(backend, net, objective="first")
            )
            assert default.success and explicit.success, name
            assert schedule_fingerprint(default.schedule) == schedule_fingerprint(
                find_schedule(net, source).schedule
            ), name
            assert schedule_fingerprint(default.schedule) == schedule_fingerprint(
                explicit.schedule
            ), name
            assert default.tree_nodes == explicit.tree_nodes, name
            # enumeration never ran: no score, no stats
            assert explicit.objective == "first"
            assert explicit.score is None
            assert explicit.objective_stats is None

    def test_unknown_objective_rejected(self):
        net = figure_5()
        with pytest.raises(ValueError, match="objective"):
            find_schedule(
                net,
                net.uncontrollable_sources()[0],
                options=SchedulerOptions(objective="fastest"),
            )

    def test_nonpositive_candidate_limit_rejected(self):
        net = figure_5()
        with pytest.raises(ValueError, match="candidate_limit"):
            find_schedule(
                net,
                net.uncontrollable_sources()[0],
                options=SchedulerOptions(objective="cost", candidate_limit=0),
            )


# ---------------------------------------------------------------------------
# objective="cost": deterministic selection, strict improvement
# ---------------------------------------------------------------------------


class TestCostObjective:
    def test_selection_identical_across_backends_and_workers(self):
        net = _win_net()
        reference = None
        for backend in BACKENDS:
            for run in (1, 2):
                result = find_schedule(
                    net,
                    WIN_SOURCE,
                    options=_options(
                        backend, net, objective="cost", candidate_limit=32
                    ),
                )
                assert result.success
                key = (
                    schedule_fingerprint(result.schedule),
                    result.score,
                    result.objective_stats["candidates"],
                    result.objective_stats["selected_fingerprint"],
                )
                if reference is None:
                    reference = key
                else:
                    assert key == reference, (backend, run)

    def test_cost_strictly_beats_first_on_pinned_corpus_net(self):
        """The acceptance witness: seed 20260877, source s2, 1151 < 1175."""
        net = _win_net()
        first = find_schedule(net, WIN_SOURCE)
        cost = find_schedule(
            net,
            WIN_SOURCE,
            options=SchedulerOptions(objective="cost", candidate_limit=32),
        )
        stats = cost.objective_stats
        assert stats["selected_score"] < stats["first_score"]
        assert cost.score == stats["selected_score"]
        assert stats["first_fingerprint"] == schedule_fingerprint(first.schedule)
        assert schedule_fingerprint(cost.schedule) != stats["first_fingerprint"]
        assert not stats["selected_is_first"]
        # the first-found schedule scores exactly what the stats recorded
        assert score_schedule(first.schedule) == stats["first_score"]
        assert score_schedule(cost.schedule) == stats["selected_score"]

    def test_candidate_limit_one_degenerates_to_first(self):
        net = _win_net()
        first = find_schedule(net, WIN_SOURCE)
        limited = find_schedule(
            net,
            WIN_SOURCE,
            options=SchedulerOptions(objective="cost", candidate_limit=1),
        )
        stats = limited.objective_stats
        assert stats["candidates"] == 1
        assert stats["selected_is_first"]
        assert schedule_fingerprint(limited.schedule) == schedule_fingerprint(
            first.schedule
        )

    def test_score_spread_is_consistent(self):
        net = _win_net()
        result = find_schedule(
            net,
            WIN_SOURCE,
            options=SchedulerOptions(objective="cost", candidate_limit=8),
        )
        stats = result.objective_stats
        assert stats["score_min"] <= stats["selected_score"] <= stats["score_max"]
        assert stats["selected_score"] <= stats["first_score"]
        assert 1 <= stats["candidates"] <= 8

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_forced_shape_nets_select_the_first_schedule(self, backend):
        """On the paper nets every candidate scores the same; the fingerprint
        tie-break plus first-candidate preference must keep selection stable
        and the returned schedule valid."""
        for name, net, source in _paper_cases():
            result = find_schedule(
                net,
                source,
                options=_options(backend, net, objective="cost", candidate_limit=4),
            )
            assert result.success, name
            assert result.objective == "cost"
            assert result.score == score_schedule(result.schedule), name


# ---------------------------------------------------------------------------
# the static score itself
# ---------------------------------------------------------------------------


class TestScore:
    def test_breakdown_terms_sum_to_score(self):
        net = figure_5()
        result = find_schedule(net, net.uncontrollable_sources()[0])
        breakdown = cost_breakdown(result.schedule)
        assert breakdown.score == (
            breakdown.base_cycles
            + breakdown.context_switch_cycles
            + 4 * breakdown.latency
            + 2 * breakdown.jitter
        )
        assert breakdown.await_nodes == len(breakdown.segments) >= 1
        assert isinstance(breakdown.score, int)

    def test_score_is_deterministic(self):
        net = _win_net()
        result = find_schedule(net, WIN_SOURCE)
        assert score_schedule(result.schedule) == score_schedule(result.schedule)

    def test_wcet_annotations_raise_the_score(self):
        """Same seed with annotations stripped: identical schedule shape but
        zero latency/jitter terms, so the annotated net scores higher."""
        spec = generate_spec(WIN_SEED, WIN_FAMILY)
        assert any(p.wcet is not None for sub in spec.subsystems for p in sub.processes)
        stripped = replace(
            spec,
            subsystems=tuple(
                replace(
                    sub, processes=tuple(replace(p, wcet=None) for p in sub.processes)
                )
                for sub in spec.subsystems
            ),
        )
        annotated_net = link(build_case(spec).network).net
        stripped_net = link(build_case(stripped).network).net
        # WCET is part of result identity: the structural fingerprint (and
        # hence every cache key) must distinguish the two nets
        assert structural_fingerprint(annotated_net) != structural_fingerprint(
            stripped_net
        )
        annotated = find_schedule(annotated_net, WIN_SOURCE)
        plain = find_schedule(stripped_net, WIN_SOURCE)
        assert schedule_fingerprint(annotated.schedule) == schedule_fingerprint(
            plain.schedule
        )
        annotated_cost = cost_breakdown(annotated.schedule)
        plain_cost = cost_breakdown(plain.schedule)
        assert plain_cost.latency == 0 and plain_cost.jitter == 0
        assert annotated_cost.latency > 0
        assert annotated_cost.score > plain_cost.score
        assert annotated_cost.base_cycles == plain_cost.base_cycles


# ---------------------------------------------------------------------------
# the static prediction against the simulated ground truth
# ---------------------------------------------------------------------------


class TestPrediction:
    def test_prediction_matches_simulation_on_pinned_corpus_case(self):
        from repro.corpus.differential import prediction_problems
        from repro.runtime.simulation import SingleTaskSimulation
        from repro.scheduling.ep import find_all_schedules
        from repro.scheduling.objective import predict_single_task

        spec = generate_spec(WIN_SEED, WIN_FAMILY)
        case = build_case(spec)
        linked = link(case.network)
        results = find_all_schedules(linked.net)
        schedules = {source: r.schedule for source, r in results.items()}
        stimulus = case.manifest["stimulus"]
        simulated = SingleTaskSimulation(linked, schedules=schedules).run(stimulus)
        prediction = predict_single_task(linked, schedules, stimulus)
        assert prediction.context_switches == 0
        assert prediction.isr_dispatches == simulated.isr_dispatches
        assert prediction_problems(prediction, simulated) == []

    def test_corpus_predict_stage_passes_on_smoke_specs(self):
        """The `predict` pipeline stage (static counters vs SingleTaskSimulation)
        holds on one generated case per topology family."""
        from repro.corpus.differential import STAGES, run_case
        from repro.corpus.generator import FAMILIES

        assert "predict" in STAGES
        for index, family in enumerate(FAMILIES):
            spec = generate_spec(20260808 + index, family)
            outcome = run_case(spec)
            assert outcome.passed, (family, outcome.stage, outcome.detail)


# ---------------------------------------------------------------------------
# quasi-static emission (select & emit)
# ---------------------------------------------------------------------------


class TestQuasiStaticFusion:
    def _synthesize(self, fuse: bool):
        from repro.codegen.synthesis import SynthesisOptions, synthesize_task

        spec = generate_spec(20260809, "tree")
        linked = link(build_case(spec).network)
        source = linked.net.uncontrollable_sources()[0]
        result = find_schedule(linked.net, source)
        return synthesize_task(
            linked,
            result.schedule,
            options=SynthesisOptions(task_name="t", fuse_straightline=fuse),
        )

    def test_fusion_is_off_by_default_and_byte_identical(self):
        from repro.codegen.synthesis import SynthesisOptions

        assert SynthesisOptions().fuse_straightline is False
        plain = self._synthesize(fuse=False)
        assert plain.fused_segments == []

    def test_fusion_inlines_goto_only_segments(self):
        plain = self._synthesize(fuse=False)
        fused = self._synthesize(fuse=True)
        assert fused.fused_segments, "pinned tree case should fuse segments"
        # fused segment labels disappear from the emitted task...
        for label in fused.fused_segments:
            assert f"{label}:" not in fused.run_section
            assert f"goto {label};" not in fused.run_section
            # ...but existed in the un-fused emission
            assert f"{label}:" in plain.run_section
        assert fused.count_construct("labels") < plain.count_construct("labels")

    def test_fused_emission_has_no_dangling_gotos(self):
        import re

        fused = self._synthesize(fuse=True)
        labels = set(re.findall(r"^\s*(\w+):", fused.run_section, re.MULTILINE))
        targets = set(re.findall(r"goto (\w+);", fused.run_section))
        assert targets <= labels, targets - labels


# ---------------------------------------------------------------------------
# threading: serialization, cache key, wire protocol, FlowC WCET
# ---------------------------------------------------------------------------


class TestThreading:
    def test_serialized_record_carries_objective_and_score(self):
        net = _win_net()
        result = find_schedule(
            net,
            WIN_SOURCE,
            options=SchedulerOptions(objective="cost", candidate_limit=8),
        )
        record = result_to_record(result)
        assert record["objective"] == "cost"
        assert record["score"] == result.score
        revived = result_from_record(net, WIN_SOURCE, record)
        assert revived.objective == "cost"
        assert revived.score == result.score
        assert schedule_fingerprint(revived.schedule) == schedule_fingerprint(
            result.schedule
        )

    def test_pre_objective_records_default_to_first(self):
        net = figure_5()
        source = net.uncontrollable_sources()[0]
        result = find_schedule(net, source)
        record = result_to_record(result)
        record.pop("objective")
        record.pop("score")
        revived = result_from_record(net, source, record)
        assert revived.objective == "first"
        assert revived.score is None

    def test_cache_key_separates_first_from_cost(self):
        first_key = options_cache_key(SchedulerOptions())
        cost_key = options_cache_key(
            SchedulerOptions(objective="cost", candidate_limit=8)
        )
        assert first_key is not None and cost_key is not None
        assert first_key != cost_key
        # candidate_limit fragments the "cost" key space but never "first"
        assert options_cache_key(
            SchedulerOptions(objective="cost", candidate_limit=8)
        ) != options_cache_key(SchedulerOptions(objective="cost", candidate_limit=16))
        assert options_cache_key(
            SchedulerOptions(candidate_limit=8)
        ) == options_cache_key(SchedulerOptions(candidate_limit=16))

    def test_wire_protocol_accepts_and_validates_objective(self):
        options = options_from_dict({"objective": "cost", "candidate_limit": 16})
        assert options.objective == "cost"
        assert options.candidate_limit == 16
        with pytest.raises(ProtocolError):
            options_from_dict({"objective": "cheapest"})
        for bad_limit in (0, 65, True, "8"):
            with pytest.raises(ProtocolError):
                options_from_dict({"objective": "cost", "candidate_limit": bad_limit})

    def test_flowc_wcet_parses_and_links(self):
        process = parse_process(
            "PROCESS worker (In DPORT a, Out DPORT b) WCET(12) {\n"
            "    int x;\n"
            "    while (1) {\n"
            "        READ_DATA(a, &x, 1);\n"
            "        WRITE_DATA(b, x, 1);\n"
            "    }\n"
            "}"
        )
        assert process.wcet == 12
        spec = generate_spec(WIN_SEED, WIN_FAMILY)
        net = link(build_case(spec).network).net
        annotated = {
            proc.name: proc.wcet
            for sub in spec.subsystems
            for proc in sub.processes
            if proc.wcet is not None
        }
        assert annotated, "pinned seed should carry WCET annotations"
        for name, wcet in annotated.items():
            assert net.process_wcet[name] == wcet
        assert set(net.process_wcet) == set(annotated)

    def test_flowc_wcet_rejects_negative(self):
        with pytest.raises(FlowCParseError):
            parse_process(
                "PROCESS worker (In DPORT a) WCET(-1) {\n"
                "    int x;\n"
                "    while (1) {\n"
                "        READ_DATA(a, &x, 1);\n"
                "    }\n"
                "}"
            )
