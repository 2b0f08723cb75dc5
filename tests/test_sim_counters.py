"""Both simulators' exact counters on the pinned systems of ``sim_counters``."""

from __future__ import annotations

import json

import pytest

from sim_counters import FIXTURE, SIDES, SWEEP_FIXTURE, cases, simulate, sweep


def test_simulator_counters_match_the_pin():
    pinned = json.loads(FIXTURE.read_text())
    seen = []
    for case in cases():
        name = case[0]
        seen.append(name)
        assert simulate(case) == pinned[name], name
    assert sorted(seen) == sorted(pinned)


@pytest.mark.slow
@pytest.mark.parametrize("side", SIDES)
def test_sweep_digests_match_the_pin(side):
    pinned = json.loads(SWEEP_FIXTURE.read_text())[side]
    digests = sweep(side)
    assert sorted(digests) == sorted(pinned)
    moved = sorted(name for name, value in digests.items() if value != pinned[name])
    assert not moved, f"{len(moved)} {side} digests differ from the pin: {moved[:10]}"
