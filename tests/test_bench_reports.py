"""The benchmark CLIs merge their sections into ``BENCH_scheduler.json``.

``bench_scheduler.py``, ``bench_serve.py`` and ``python -m repro.corpus
--bench-output`` share one rule, ``repro.util.merge_report``: a run replaces
only the sections it produces, every other section of the report keeps its
bytes, and an unreadable report is refused before any work and left
untouched.  The runs are stubbed, so these tests time nothing.  The serve
benchmark's acceptance criteria are checked on hand-made counts.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

import repro.corpus.cli as corpus_cli
from repro.corpus.differential import CorpusReport
from repro.util import ReportError

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = REPO_ROOT / "benchmarks"
COMMITTED = REPO_ROOT / "BENCH_scheduler.json"

#: what a stubbed ``bench_scheduler`` run reports
STUB_RUN = {
    "benchmark": "stub",
    "cpu_count": 2,
    "python": "3.x",
    "quick": True,
    "cases": [
        {"case": "stub", "sources": 1, "repeats": 1, "serial_seconds": 0.01,
         "identical_schedules": True},
    ],
}


def _bench_module(name: str):
    sys.path.insert(0, str(BENCHMARKS))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCHMARKS))


@pytest.fixture
def report_copy(tmp_path):
    """A copy of the committed report, which is canonical JSON."""
    text = COMMITTED.read_text()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    path = tmp_path / "BENCH_scheduler.json"
    path.write_text(text)
    return path


def _stub_scheduler(monkeypatch):
    bench_scheduler = _bench_module("bench_scheduler")
    monkeypatch.setattr(bench_scheduler, "run_cli_bench", lambda **_: dict(STUB_RUN))
    return bench_scheduler


def _stub_corpus(monkeypatch):
    """The corpus CLI over a sweep that runs no case."""
    monkeypatch.setattr(
        corpus_cli, "run_corpus", lambda specs, progress=None: CorpusReport([], 0.0)
    )
    return ["--cases", "1", "--seed", "3", "--families", "chain"]


def _assert_merged(path: Path, sections) -> None:
    """``path`` holds the committed report with ``sections`` replaced in
    place or appended, and every other section serialized as before."""
    expected = json.loads(COMMITTED.read_text())
    expected.update(sections)
    assert path.read_text() == json.dumps(expected, indent=2) + "\n"


def test_scheduler_run_keeps_every_foreign_section(monkeypatch, report_copy):
    bench_scheduler = _stub_scheduler(monkeypatch)
    assert bench_scheduler.main(["--output", str(report_copy)]) == 0
    _assert_merged(report_copy, STUB_RUN)


def test_serve_run_keeps_every_foreign_section(report_copy):
    bench_serve = _bench_module("bench_serve")
    section = {"totals": {"requests": 3}, "warm_ratio": 1.0}
    bench_serve.write_report(section, report_copy)
    _assert_merged(report_copy, {"serve": section})


def test_corpus_run_keeps_every_foreign_section(monkeypatch, report_copy, capsys):
    args = _stub_corpus(monkeypatch)
    assert corpus_cli.main(args + ["--bench-output", str(report_copy)]) == 0
    assert "'corpus' section written" in capsys.readouterr().out
    _assert_merged(report_copy, {"corpus": {"seed": 3, **CorpusReport([], 0.0).to_dict()}})


def test_a_missing_report_starts_empty(monkeypatch, tmp_path):
    bench_scheduler = _stub_scheduler(monkeypatch)
    path = tmp_path / "fresh.json"
    assert bench_scheduler.main(["--output", str(path)]) == 0
    assert json.loads(path.read_text()) == STUB_RUN


@pytest.mark.parametrize("text", ["{not json", "[1, 2]", ""])
def test_an_unreadable_report_is_refused_and_left_untouched(
    monkeypatch, tmp_path, capsys, text
):
    bench_scheduler = _stub_scheduler(monkeypatch)
    bench_serve = _bench_module("bench_serve")
    corpus_args = _stub_corpus(monkeypatch)
    path = tmp_path / "BENCH_scheduler.json"
    path.write_text(text)
    assert bench_scheduler.main(["--output", str(path)]) != 0
    assert str(path) in capsys.readouterr().err
    with pytest.raises(ReportError):
        bench_serve.write_report({"totals": {}}, path)
    # the corpus CLI refuses it as bench_scheduler does: exit 2, not the
    # exit 1 of a failing case
    assert corpus_cli.main(corpus_args + ["--bench-output", str(path)]) == 2
    assert str(path) in capsys.readouterr().err
    assert path.read_text() == text


@pytest.mark.parametrize("cli", ["bench_scheduler", "bench_serve", "corpus"])
def test_an_unreadable_report_is_refused_before_any_work(monkeypatch, tmp_path, capsys, cli):
    path = tmp_path / "BENCH_scheduler.json"
    path.write_text("{not json")

    def no_work(*_args, **_kwargs):
        raise AssertionError("the run started")

    if cli == "corpus":
        monkeypatch.setattr(corpus_cli, "run_corpus", no_work)
        main = corpus_cli.main
        argv = ["--cases", "1", "--seed", "3", "--families", "chain", "--bench-output"]
    else:
        module = _bench_module(cli)
        monkeypatch.setattr(
            module, "run_cli_bench" if cli == "bench_scheduler" else "build_corpus", no_work
        )
        main = module.main
        argv = ["--output"]
    assert main(argv + [str(path)]) == 2
    assert str(path) in capsys.readouterr().err
    assert path.read_text() == "{not json"


def _serve_section(*, requests, coalesced, cache_hits, live_searches):
    """A measured-only ``bench_serve`` section with these daemon counters."""
    delta = {
        "requests": requests,
        "coalesced": coalesced,
        "cache_hits": cache_hits,
        "live_searches": live_searches,
        "memo_hits": 0,
        "errors": 0,
        "bad_requests": 0,
        "timeouts": 0,
    }
    return {
        "phases": {"measured": {"server_delta": delta, "mismatches": [], "client_errors": []}},
        "final_stats": {"disk_rejected": 0},
    }


def test_the_serve_warm_ratio_counts_source_lookups():
    """Coalesced waits and cache hits count sources, not request lines: the
    ratio is over every source lookup, and its criterion gates on it."""
    evaluate = _bench_module("bench_serve").evaluate
    # a smoke run's counts: 55 lines asked for 149 sources, 11 searched live
    section = _serve_section(requests=55, coalesced=76, cache_hits=62, live_searches=11)
    assert evaluate(section, True, smoke=False) == []
    assert section["warm_ratio"] == 0.9262
    # 20 of 158 lookups searched live: the caches did not absorb the load,
    # though (coalesced + cache_hits) / requests would read 2.5
    section = _serve_section(requests=55, coalesced=76, cache_hits=62, live_searches=20)
    (problem,) = evaluate(section, True, smoke=False)
    assert section["warm_ratio"] == 0.8734
    assert problem.startswith("warm ratio 0.8734 <= 0.9: 20 of 158 source lookups")
