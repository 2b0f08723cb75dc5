"""Tests of the benchmark itself, at the reduced size (``--seconds 1``).

Each workload runs twice on a seed not used while the benchmark was written:
both runs must pass every check and repeat the exact counters.  One traced
run per workload must report every per-layer metric of ``BENCHMARK.json``.

    python -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7
EXACT = ("nodes_expanded", "fires", "tree_nodes", "tinv_invariants",
         "context_switches", "task_cycles", "code_bytes")


def run(workload: str, trace: int, seed: int = SEED):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    lines = done.stdout.strip().splitlines()
    detail = json.loads(lines[-2][len("detail: "):])
    return done.returncode, detail, json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_second_seed_runs_clean_and_repeats_exact_counters(workload):
    first, second = run(workload, 0), run(workload, 0)
    for code, detail, result in (first, second):
        assert code == 0 and result["correct"] and result["failed"] == 0
        assert detail["error_rate"] == 0
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]
        }
        assert all(m["value"] > 0 for m in result["metrics"].values())
    counters = [{key: detail["counters"][key] for key in EXACT} for _, detail, _ in (first, second)]
    assert counters[0] == counters[1]


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_run_reports_every_layer_metric(workload):
    code, _detail, result = run(workload, 1)
    assert code == 0 and result["correct"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]
    }
    # the spans around the library calls account for a system's time
    assert result["metrics"]["trace.child_coverage_min"]["value"] >= 0.95


def test_assembled_networks_match_the_library_builders():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from repro.apps.video import VideoAppConfig, build_video_system
    from repro.corpus.generator import generate_corpus, make_unschedulable_spec
    from repro.corpus.topologies import build_network
    from repro.flowc.linker import link
    from repro.flowc.parser import parse_program
    from repro.petrinet.fingerprint import structural_fingerprint
    from systems import assemble, corpus_system, pfc_system

    def fingerprint(system):
        processes = parse_program(system.flowc["program"])
        return structural_fingerprint(link(assemble(system.flowc, processes)).net)

    rng = random.Random(SEED)
    for lines, pixels in ((2, 2), (10, 10), (11, 3)):
        expected = build_video_system(VideoAppConfig(lines, pixels)).net
        assert fingerprint(pfc_system(lines, pixels, rng)) == structural_fingerprint(expected)
    for spec in generate_corpus(14, seed=SEED) + [make_unschedulable_spec(SEED)]:
        expected = link(build_network(spec)).net
        assert fingerprint(corpus_system(spec, None)) == structural_fingerprint(expected)
