"""Tests of the corpus subsystem: generation, differential runs, shrinking.

The acceptance-critical case lives in ``TestFaultInjection``: a deliberately
injected codegen-layer fault must be *caught* by the differential harness at
the compare stage and *shrunk* to a minimal (<= 10 process) reproducer whose
triage bundle replays the failure.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.codegen.task import ExecutableTask
from repro.corpus import (
    FAMILIES,
    EdgeSpec,
    ProcessSpec,
    ScenarioSpec,
    SpecError,
    SubsystemSpec,
    build_case,
    check_spec,
    emit_program,
    generate_corpus,
    generate_spec,
    make_unschedulable_spec,
    run_case,
    shrink_case,
    spec_from_dict,
    spec_to_dict,
    stimulus_for,
)
from repro.corpus.cli import main as corpus_main
from repro.flowc.linker import link
from repro.scheduling.ep import find_all_schedules

pytestmark = pytest.mark.corpus


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


class TestGeneration:
    def test_same_seed_same_spec(self):
        assert generate_spec(17) == generate_spec(17)
        assert generate_spec(3, "tree") == generate_spec(3, "tree")

    def test_different_seeds_differ(self):
        assert generate_spec(1, "chain") != generate_spec(2, "chain")

    def test_corpus_covers_every_family(self):
        families = {spec.family for spec in generate_corpus(len(FAMILIES))}
        assert families == set(FAMILIES)

    def test_corpus_is_prefix_stable(self):
        assert generate_corpus(10)[:4] == generate_corpus(4)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            generate_spec(0, "moebius")

    def test_spec_roundtrips_through_json(self):
        for seed in range(len(FAMILIES)):
            spec = generate_spec(seed)
            data = json.loads(json.dumps(spec_to_dict(spec)))
            assert spec_from_dict(data) == spec

    def test_spec_from_dict_drops_the_retired_wcet_key(self):
        """Bundles written while processes had a ``wcet`` field replay the
        same case; any other unknown key still fails."""
        spec = generate_spec(3)
        data = spec_to_dict(spec)
        processes = data["subsystems"][0]["processes"]
        assert len(processes) >= 2
        processes[0]["wcet"] = None
        processes[1]["wcet"] = 7
        assert spec_from_dict(data) == spec_from_dict(spec_to_dict(spec)) == spec
        processes[0]["deadline"] = 3
        with pytest.raises(TypeError):
            spec_from_dict(data)

    def test_stimulus_prefix_stable_under_truncation(self):
        spec = generate_spec(5, "chain")
        long = stimulus_for(spec)
        from dataclasses import replace

        short = stimulus_for(replace(spec, stimulus_length=1))
        for port, values in short.items():
            assert values == long[port][: len(values)]


class TestSpecValidation:
    def test_rejects_indivisible_rates(self):
        spec = ScenarioSpec(
            seed=0,
            family="chain",
            subsystems=(
                SubsystemSpec(
                    trigger="a",
                    processes=(ProcessSpec("a"), ProcessSpec("b", repetitions=2)),
                    edges=(EdgeSpec("c", "a", "b", items=3),),
                ),
            ),
        )
        with pytest.raises(SpecError):
            check_spec(spec)

    def test_rejects_unreachable_process(self):
        spec = ScenarioSpec(
            seed=0,
            family="chain",
            subsystems=(
                SubsystemSpec(
                    trigger="a",
                    processes=(ProcessSpec("a"), ProcessSpec("b")),
                    edges=(),
                ),
            ),
        )
        with pytest.raises(SpecError):
            check_spec(spec)

    def test_rejects_arm_edge_without_branch(self):
        spec = ScenarioSpec(
            seed=0,
            family="chain",
            subsystems=(
                SubsystemSpec(
                    trigger="a",
                    processes=(ProcessSpec("a"), ProcessSpec("b")),
                    edges=(EdgeSpec("c", "a", "b", arm=0),),
                ),
            ),
        )
        with pytest.raises(SpecError):
            check_spec(spec)


# ---------------------------------------------------------------------------
# differential pipeline
# ---------------------------------------------------------------------------


class TestDifferential:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_one_case_per_family_passes(self, family):
        outcome = run_case(generate_spec(23, family))
        assert outcome.passed, f"{outcome.stage}: {outcome.message}"
        assert outcome.schedulable

    def test_unschedulable_case_fails_on_every_backend(self):
        """The one EP search fails on the unschedulable spec."""
        case = build_case(make_unschedulable_spec(0))
        linked = link(case.network)
        results = find_all_schedules(
            linked.net, sources=case.manifest["source_transitions"]
        )
        assert not all(r.success for r in results.values())

    def test_unschedulable_case_passes_as_expected_failure(self):
        outcome = run_case(make_unschedulable_spec(0))
        assert outcome.passed
        assert not outcome.schedulable

    def test_manifest_axes_reflect_spec(self):
        spec = make_unschedulable_spec(0)
        manifest = build_case(spec).manifest
        assert manifest["axes"]["branching"]
        assert not manifest["expected_schedulable"]


# ---------------------------------------------------------------------------
# fault injection + shrinking (the acceptance criterion)
# ---------------------------------------------------------------------------


class TestFaultInjection:
    @pytest.fixture
    def inject_codegen_fault(self, monkeypatch):
        """Corrupt the synthesized task's reaction to its triggering value."""
        original = ExecutableTask.react

        def faulty(self, value):
            return original(self, value + 1)

        monkeypatch.setattr(ExecutableTask, "react", faulty)

    def test_fault_is_caught_at_compare_stage(self, inject_codegen_fault):
        outcome = run_case(generate_spec(23, "chain"))
        assert not outcome.passed
        assert outcome.stage == "compare"
        assert "diverge" in outcome.message

    def test_fault_shrinks_to_minimal_reproducer(self, inject_codegen_fault):
        spec = generate_spec(23, "multi_source")
        assert spec.size() > 4, "need a non-trivial starting point"
        failure = run_case(spec)
        assert not failure.passed and failure.stage == "compare"
        shrunk = shrink_case(spec, failure)
        assert shrunk.reduced
        assert shrunk.spec.size() <= 10
        assert shrunk.outcome.stage == "compare"

    def test_triage_bundle_replays(self, inject_codegen_fault, tmp_path):
        from repro.corpus.cli import write_triage

        spec = generate_spec(23, "chain")
        failure = run_case(spec)
        shrunk = shrink_case(spec, failure)
        case_dir = write_triage(tmp_path, spec, failure, shrunk)
        for name in ("spec.json", "original_spec.json", "program.flowc", "outcome.json"):
            assert (case_dir / name).exists()
        replayed = spec_from_dict(json.loads((case_dir / "spec.json").read_text()))
        again = run_case(replayed)
        assert not again.passed and again.stage == "compare"

    def test_shrink_rejects_passing_outcome(self):
        spec = generate_spec(23, "chain")
        outcome = run_case(spec)
        assert outcome.passed
        with pytest.raises(ValueError):
            shrink_case(spec, outcome)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_small_sweep_exits_zero(self, tmp_path, capsys):
        code = corpus_main(
            [
                "--cases", "3",
                "--seed", "5",
                "--triage-dir", str(tmp_path / "triage"),
                "--bench-output", str(tmp_path / "bench.json"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "passed" in out
        document = json.loads((tmp_path / "bench.json").read_text())
        # 3 generated + 2 expected-failure cases, read-modify-write section
        assert document["corpus"]["cases"] == 5
        assert document["corpus"]["pass_rate"] == 1.0

    def test_bench_merge_preserves_other_sections(self, tmp_path):
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps({"serve": {"kept": True}}))
        code = corpus_main(
            [
                "--cases", "1",
                "--seed", "3",
                "--families", "chain",
                "--triage-dir", str(tmp_path / "triage"),
                "--bench-output", str(bench),
            ]
        )
        assert code == 0
        document = json.loads(bench.read_text())
        assert document["serve"] == {"kept": True}
        assert "corpus" in document

    def test_failing_sweep_writes_triage_and_exits_nonzero(
        self, tmp_path, monkeypatch
    ):
        original = ExecutableTask.react
        monkeypatch.setattr(
            ExecutableTask, "react", lambda self, value: original(self, value + 1)
        )
        triage = tmp_path / "triage"
        code = corpus_main(
            [
                "--cases", "1",
                "--seed", "23",
                "--families", "chain",
                "--triage-dir", str(triage),
            ]
        )
        assert code == 1
        bundles = list(triage.iterdir())
        assert bundles, "failing cases must produce triage bundles"

    def test_replay_roundtrip(self, tmp_path, capsys):
        spec = generate_spec(23, "chain")
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_to_dict(spec)))
        assert corpus_main(["--replay", str(path)]) == 0
        assert "PROCESS" in capsys.readouterr().out


@pytest.mark.slow
class TestFullSmoke:
    """The CI corpus job's sweep, runnable locally with ``-m slow``."""

    def test_smoke_sweep_passes(self, tmp_path):
        assert (
            corpus_main(["--smoke", "--triage-dir", str(tmp_path / "triage")]) == 0
        )
