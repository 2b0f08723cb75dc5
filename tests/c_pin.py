"""Pinned synthesized C: the sha256 of every task the C synthesizer emits.

``tests/golden/codegen/c_sha256.json`` maps each pinned system of
``sim_counters.cases()`` (28 corpus specs, the PFC system at 4x5 and the
divisors example) to ``{source transition: sha256}`` of
``synthesize_task(...).full_source`` for that source's schedule.  The C is
never compiled or executed, so the pin is what catches a drift in the
expression and statement renderers, the choice emission (``if``/``else`` or
``switch``), the jump sections and the declarations.
``tests/test_c_pin.py`` diffs it.  Regenerate it only for an intended change of
the emitted C::

    PYTHONPATH=src python tests/c_pin.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict

from repro.codegen.synthesis import synthesize_task
from repro.scheduling.ep import SchedulerOptions, find_all_schedules
from sim_counters import Case, cases

FIXTURE = Path(__file__).parent / "golden" / "codegen" / "c_sha256.json"


def synthesized_c(case: Case) -> Dict[str, str]:
    """The synthesized C of every source of one pinned system."""
    _name, linked, sources, _stimulus, _capacity, max_nodes = case
    results = find_all_schedules(
        linked.net, options=SchedulerOptions(max_nodes=max_nodes), sources=list(sources)
    )
    texts = {}
    for source, result in sorted(results.items()):
        assert result.success, (source, result.failure_reason)
        texts[source] = synthesize_task(linked, result.schedule).full_source
    return texts


def c_digests(case: Case) -> Dict[str, str]:
    """The sha256 of the synthesized C of every source of one pinned system."""
    return {
        source: hashlib.sha256(text.encode()).hexdigest()
        for source, text in synthesized_c(case).items()
    }


def main() -> None:
    digests = {case[0]: c_digests(case) for case in cases()}
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE} ({len(digests)} systems)")


if __name__ == "__main__":
    main()
