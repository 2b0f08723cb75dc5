"""Both simulators' exact counters on the pinned systems of ``sim_counters``."""

from __future__ import annotations

import json

from sim_counters import FIXTURE, cases, simulate


def test_simulator_counters_match_the_pin():
    pinned = json.loads(FIXTURE.read_text())
    seen = []
    for case in cases():
        name = case[0]
        seen.append(name)
        assert simulate(case) == pinned[name], name
    assert sorted(seen) == sorted(pinned)
