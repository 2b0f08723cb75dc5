"""The ablation searches, pinned: EP without the promising vector.

The golden schedules (``tests/golden/*.json``) pin the default search,
whose ECS ranking prefers the transitions of a candidate T-invariant
(Section 5.5.2).  ``tests/golden/ablation/tie_break.json`` pins the same
search under ``SchedulerOptions(use_invariant_heuristic=False)``, where
only the tie-breaks rank the ECSs.  It covers every source of every golden
case (default options) and of every system of ``sim_counters.cases()``
(that system's node budget), and records per search its tree size, every
counter, its failure reason and its schedule fingerprint.

A change of how the search ranks or fires the ECSs shows here even when it
leaves the default schedules alone.  ``tests/test_ablation_pin.py`` diffs
it.  Regenerate it only for an intended change of the search::

    PYTHONPATH=src python tests/ablation_pin.py
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

from golden_nets import GOLDEN_CASES
from repro.petrinet.net import PetriNet
from repro.scheduling.ep import SchedulerOptions, find_all_schedules
from repro.scheduling.serialize import schedule_fingerprint
from sim_counters import cases

FIXTURE = Path(__file__).parent / "golden" / "ablation" / "tie_break.json"

#: (key, net, sources, node budget); ``None`` keeps the default budget
System = Tuple[str, PetriNet, Tuple[str, ...], Optional[int]]


def systems() -> Iterator[System]:
    """The pinned systems, keyed ``golden/<net>`` and ``sim/<system>``."""
    for name, (builder, sources) in sorted(GOLDEN_CASES.items()):
        yield f"golden/{name}", builder(), tuple(sources), None
    for name, linked, sources, _stimulus, _capacity, max_nodes in cases():
        yield f"sim/{name}", linked.net, tuple(sources), max_nodes


def ablation_records(system: System) -> Dict[str, Dict[str, object]]:
    """``{source: record}`` of one system's tie-break searches."""
    _name, net, sources, max_nodes = system
    options = SchedulerOptions(use_invariant_heuristic=False)
    if max_nodes is not None:
        options.max_nodes = max_nodes
    results = find_all_schedules(net, options=options, sources=list(sources))
    return {
        source: {
            "tree_nodes": result.tree_nodes,
            "counters": result.counters.as_dict(),
            "failure_reason": result.failure_reason,
            "fingerprint": (
                schedule_fingerprint(result.schedule) if result.success else None
            ),
        }
        for source, result in results.items()
    }


def main() -> None:
    records = {system[0]: ablation_records(system) for system in systems()}
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE} ({len(records)} systems)")


if __name__ == "__main__":
    main()
