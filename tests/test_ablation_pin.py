"""The tie-break-only searches match ``tests/golden/ablation/tie_break.json``."""

from __future__ import annotations

import json

from ablation_pin import FIXTURE, ablation_records, systems


def test_tie_break_searches_match_the_pin():
    pinned = json.loads(FIXTURE.read_text())
    seen = []
    for system in systems():
        name = system[0]
        seen.append(name)
        assert ablation_records(system) == pinned[name], name
    assert sorted(seen) == sorted(pinned)
