"""The synthesized C of the pinned systems of ``c_pin``, byte for byte, and
the ISR labels its jumps land on."""

from __future__ import annotations

import json
import re

from c_pin import FIXTURE, c_digests, synthesized_c
from sim_counters import cases

IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def test_synthesized_c_matches_the_pin():
    pinned = json.loads(FIXTURE.read_text())
    seen = []
    for case in cases():
        name = case[0]
        seen.append(name)
        assert c_digests(case) == pinned[name], name
    assert sorted(seen) == sorted(pinned)


def test_every_goto_names_one_defined_c_label():
    """Every label is a C identifier defined once, and every ``goto`` of
    every pinned task names one -- also where the target ECS was inlined
    into another segment."""
    jumps = 0
    for case in cases():
        for source, text in synthesized_c(case).items():
            where = (case[0], source)
            lines = [line.strip() for line in text.splitlines()]
            labels = [
                line[:-1]
                for line in lines
                if line.endswith(":") and not line.startswith("case ") and line != "default:"
            ]
            targets = re.findall(r"\bgoto ([^;]*);", text)
            assert all(IDENTIFIER.fullmatch(label) for label in labels), where
            assert len(set(labels)) == len(labels), where
            assert set(targets) <= set(labels), where
            jumps += len(targets)
    assert jumps > 0
