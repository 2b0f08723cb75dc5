"""Registry of the golden-schedule nets and the fixture (re)generator.

Each golden case pins the full canonical schedule (plus its summary shape:
node count, await count, channel bounds) for one (net, source) pair under
default scheduler options.  The EP search is deterministic, so any diff
against these fixtures is a behavioural change of the scheduler and must be
either a bug or an intentional, reviewed regeneration.

Regenerate after an *intentional* scheduler change with:

    PYTHONPATH=src python tests/golden_nets.py

The test suite (``tests/test_golden_schedules.py``) re-derives every case
and diffs it against the stored JSON.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from repro.apps import paper_nets
from repro.apps.video import VideoAppConfig, build_video_system
from repro.petrinet.net import PetriNet
from repro.scheduling.ep import SchedulerResult, find_schedule
from repro.scheduling.serialize import (
    schedule_fingerprint,
    schedule_summary,
    schedule_to_dict,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


def _pfc_4x5() -> PetriNet:
    return build_video_system(VideoAppConfig(lines_per_frame=4, pixels_per_line=5)).net


#: net name -> (builder, sources to schedule).  figure_4b is pinned as a
#: *failure* fixture: it must keep having no single-source schedule.
GOLDEN_CASES: Dict[str, Tuple[Callable[[], PetriNet], List[str]]] = {
    "figure_4a": (paper_nets.figure_4a, ["a", "b"]),
    "figure_4b": (paper_nets.figure_4b, ["a", "b"]),
    "figure_5": (paper_nets.figure_5, ["a", "d"]),
    "figure_6": (paper_nets.figure_6, ["a", "d"]),
    "figure_7_k3": (lambda: paper_nets.figure_7(3), ["a"]),
    "figure_8": (paper_nets.figure_8, ["a"]),
    "pfc_4x5": (_pfc_4x5, ["src.controller.init"]),
}


def fixture_path(net_name: str, source: str) -> Path:
    return GOLDEN_DIR / f"{net_name}__{source}.json"


def derive_case(
    net_name: str,
    source: str,
    search: Callable[[PetriNet, str], SchedulerResult] = find_schedule,
) -> Dict[str, object]:
    """Run ``search`` on the case and package the golden record.

    ``search`` defaults to ``find_schedule`` with default options, which is
    what fixture regeneration uses.  The record carries nothing of how it
    was derived, so every way of running the search must reproduce the
    committed fixture bytes exactly (``tests/test_kernel.py`` sweeps them).
    """
    builder, _sources = GOLDEN_CASES[net_name]
    net = builder()
    result = search(net, source)
    record: Dict[str, object] = {
        "net": net_name,
        "source": source,
        "success": result.success,
        "summary": schedule_summary(result.schedule),
    }
    if result.schedule is not None:
        record["schedule"] = schedule_to_dict(result.schedule)
        record["fingerprint"] = schedule_fingerprint(result.schedule)
    else:
        record["failure_reason"] = result.failure_reason
    return record


def render_case(record: Dict[str, object]) -> str:
    """The exact fixture bytes for a record (the byte-level sync contract)."""
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def regenerate() -> List[Path]:
    GOLDEN_DIR.mkdir(exist_ok=True)
    written: List[Path] = []
    for net_name, (_builder, sources) in sorted(GOLDEN_CASES.items()):
        for source in sources:
            record = derive_case(net_name, source)
            path = fixture_path(net_name, source)
            path.write_text(render_case(record))
            written.append(path)
    return written


if __name__ == "__main__":
    for path in regenerate():
        print(f"wrote {path}")
