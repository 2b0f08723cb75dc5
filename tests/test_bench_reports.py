"""The benchmark CLIs merge their sections into ``BENCH_scheduler.json``.

A run replaces only the sections it produces; every other section of the
report keeps its bytes, and an unreadable report is refused and left
untouched.  The runs are stubbed, so these tests time nothing.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = REPO_ROOT / "benchmarks"
COMMITTED = REPO_ROOT / "BENCH_scheduler.json"

#: what a stubbed ``bench_scheduler`` run reports
STUB_RUN = {
    "benchmark": "stub",
    "cpu_count": 2,
    "python": "3.x",
    "quick": True,
    "cache": {"enabled": False},
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
    reports = _bench_module("reports")
    path = tmp_path / "BENCH_scheduler.json"
    path.write_text(text)
    assert bench_scheduler.main(["--output", str(path)]) != 0
    assert str(path) in capsys.readouterr().err
    with pytest.raises(reports.ReportError):
        bench_serve.write_report({"totals": {}}, path)
    assert path.read_text() == text
