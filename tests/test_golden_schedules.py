"""Golden-schedule regression harness.

Re-derives the schedule for every (net, source) pair registered in
``tests/golden_nets.py`` and diffs it against the committed fixture: the
shape summary (node count, await count, channel bounds) for readable
failures first, then the full canonical schedule and its fingerprint for
byte-level pinning.  Failure cases (figure_4b) are pinned too: they must
keep failing.

If a scheduler change intentionally alters schedules, regenerate with
``PYTHONPATH=src python tests/golden_nets.py`` and review the diff.
"""

from __future__ import annotations

import json

import pytest

from golden_nets import GOLDEN_CASES, derive_case, fixture_path, render_case

ALL_CASES = [
    (net_name, source)
    for net_name, (_builder, sources) in sorted(GOLDEN_CASES.items())
    for source in sources
]


@pytest.mark.parametrize("net_name,source", ALL_CASES)
def test_schedule_matches_golden_fixture(net_name, source):
    path = fixture_path(net_name, source)
    assert path.exists(), (
        f"missing golden fixture {path}; regenerate with "
        "`PYTHONPATH=src python tests/golden_nets.py`"
    )
    golden = json.loads(path.read_text())
    derived = derive_case(net_name, source)

    assert derived["success"] == golden["success"]
    # the shape facts first: these diffs are human-readable
    assert derived["summary"]["nodes"] == golden["summary"]["nodes"]
    assert derived["summary"]["await_nodes"] == golden["summary"]["await_nodes"]
    assert derived["summary"]["channel_bounds"] == golden["summary"]["channel_bounds"]
    assert derived["summary"] == golden["summary"]
    # then the byte-level pin on the full canonical schedule
    if golden["success"]:
        assert derived["fingerprint"] == golden["fingerprint"]
        assert derived["schedule"] == golden["schedule"]
    else:
        assert derived["failure_reason"] == golden["failure_reason"]


def test_every_fixture_has_a_registered_case():
    """No orphaned fixture files: the registry and the directory agree."""
    expected = {fixture_path(net_name, source) for net_name, source in ALL_CASES}
    actual = set(fixture_path("", "").parent.glob("*.json"))
    assert actual == expected


@pytest.mark.parametrize("net_name,source", ALL_CASES)
def test_regenerating_fixture_is_a_byte_level_noop(net_name, source):
    """In-process regeneration must reproduce the committed bytes exactly.

    This is stricter than the field-wise diff above: it pins the fixture
    *encoding* (key order, indentation, trailing newline) as well as the
    content, so a fixture that went stale -- or a regeneration script whose
    serialization drifted -- fails CI instead of silently rewriting files
    on the next `python tests/golden_nets.py` run.
    """
    path = fixture_path(net_name, source)
    regenerated = render_case(derive_case(net_name, source))
    assert regenerated == path.read_text()


# ---------------------------------------------------------------------------
# the multi-source entry point reproduces the golden fixtures bit for bit
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("net_name", sorted(GOLDEN_CASES))
def test_workers_2_reproduces_golden_fixtures(net_name):
    """`find_all_schedules` derives the committed fixtures exactly.

    One multi-source run per golden net (its sources share one structural
    analysis); every scheduled source must match its fixture byte for byte.
    The name is kept from the two-worker run this check replaced.
    """
    from repro.scheduling.ep import find_all_schedules
    from repro.scheduling.serialize import (
        schedule_fingerprint,
        schedule_summary,
        schedule_to_dict,
    )

    builder, sources = GOLDEN_CASES[net_name]
    net = builder()
    results = find_all_schedules(net, sources=sources)
    for source in sources:
        golden = json.loads(fixture_path(net_name, source).read_text())
        result = results[source]
        assert result.success == golden["success"], source
        assert schedule_summary(result.schedule) == golden["summary"]
        if golden["success"]:
            assert schedule_to_dict(result.schedule) == golden["schedule"]
            assert schedule_fingerprint(result.schedule) == golden["fingerprint"]
        else:
            assert result.failure_reason == golden["failure_reason"]
