"""The T-invariant bases pinned in ``tests/golden/t_invariant_bases/``.

Every registered net (``tests/golden_bases.py``) is rebuilt and its basis
recomputed by a fresh elimination, then hashed and diffed against the
fixture.  After an intentional change of the basis, regenerate with
``PYTHONPATH=src python tests/golden_bases.py`` and review the diff.
"""

from __future__ import annotations

import json

from golden_bases import FIXTURE, basis_cases, basis_hash
from repro.petrinet.invariants import t_invariant_basis

CASES = basis_cases()


def test_fixture_pins_every_registered_net():
    assert sorted(json.loads(FIXTURE.read_text())) == sorted(name for name, _ in CASES)


def test_recomputed_bases_match_the_fixture():
    # every net is built afresh, so every basis is eliminated, none replayed
    golden = json.loads(FIXTURE.read_text())
    mismatched = []
    for name, build in CASES:
        basis = t_invariant_basis(build())
        if {"invariants": len(basis), "sha256": basis_hash(basis)} != golden[name]:
            mismatched.append(name)
    assert not mismatched, f"bases differ from the fixture: {mismatched}"

