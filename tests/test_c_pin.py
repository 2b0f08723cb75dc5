"""The synthesized C of the pinned systems of ``c_pin``, byte for byte."""

from __future__ import annotations

import json

from c_pin import FIXTURE, c_digests
from sim_counters import cases


def test_synthesized_c_matches_the_pin():
    pinned = json.loads(FIXTURE.read_text())
    seen = []
    for case in cases():
        name = case[0]
        seen.append(name)
        assert c_digests(case) == pinned[name], name
    assert sorted(seen) == sorted(pinned)
