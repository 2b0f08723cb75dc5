"""Registry of the nets whose T-invariant bases are pinned, and the fixture
(re)generator.

Each entry pins the canonical hash of ``t_invariant_basis(net)``: the
minimal-support invariants in their returned order, every vector as its
sorted ``(transition, count)`` pairs.  The nets are the paper's figure nets,
the 14 nets of ``benchmarks/bench_serve.py``, the PFC system of Figure 18 at
five frame geometries and a pinned 60-spec corpus sample (58 generated specs
cycling all 7 families, plus 2 Figure-4b unschedulable specs).

Regenerate after an *intentional* change of the basis with:

    PYTHONPATH=src python tests/golden_bases.py

``tests/test_golden_bases.py`` recomputes every basis and diffs it against
the stored hashes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from repro.apps import paper_nets
from repro.apps.video import VideoAppConfig, build_video_system
from repro.apps.workloads import random_choice_net, random_marked_graph, random_multi_source_net
from repro.corpus.generator import DEFAULT_SEED, generate_corpus, make_unschedulable_spec
from repro.corpus.topologies import build_network
from repro.flowc.linker import link
from repro.petrinet.net import PetriNet

FIXTURE = Path(__file__).parent / "golden" / "t_invariant_bases" / "bases.json"

#: PFC frame geometries (lines, pixels) pinned around the paper's 10x10.
PFC_GEOMETRIES = ((2, 2), (4, 5), (7, 3), (10, 10), (11, 11))

#: Generated corpus specs in the sample (8 or 9 per family) and Figure-4b specs.
CORPUS_SPECS = 58
UNSCHEDULABLE_SPECS = 2


def _pfc(lines: int, pixels: int) -> Callable[[], PetriNet]:
    return lambda: build_video_system(VideoAppConfig(lines, pixels)).net


def _linked(spec) -> Callable[[], PetriNet]:
    return lambda: link(build_network(spec)).net


def basis_cases() -> List[Tuple[str, Callable[[], PetriNet]]]:
    """Every pinned net as ``(name, builder)``, in fixture order."""
    cases: List[Tuple[str, Callable[[], PetriNet]]] = [
        ("figure_4a", paper_nets.figure_4a),
        ("figure_4b", paper_nets.figure_4b),
        ("figure_5", paper_nets.figure_5),
        ("figure_6", paper_nets.figure_6),
        ("figure_7_k3", lambda: paper_nets.figure_7(3)),
        ("figure_7_k6", lambda: paper_nets.figure_7(6)),
        ("figure_8", paper_nets.figure_8),
        # the rest of benchmarks/bench_serve.py's nets
        ("rmg_12", lambda: random_marked_graph(12, seed=9)),
        ("rmg_8", lambda: random_marked_graph(8, seed=1)),
        ("rmg_16", lambda: random_marked_graph(16, seed=2)),
        ("rmg_24", lambda: random_marked_graph(24, seed=3)),
        ("choice_3", lambda: random_choice_net(3, seed=4)),
        ("choice_5", lambda: random_choice_net(5, seed=5)),
        ("multi_2x10", lambda: random_multi_source_net(2, 10, seed=6)),
        ("multi_4x30", lambda: random_multi_source_net(4, 30, seed=7)),
    ]
    cases += [(f"pfc_{lines}x{pixels}", _pfc(lines, pixels)) for lines, pixels in PFC_GEOMETRIES]
    specs = generate_corpus(CORPUS_SPECS, seed=DEFAULT_SEED)
    specs += [make_unschedulable_spec(seed) for seed in range(UNSCHEDULABLE_SPECS)]
    cases += [(f"corpus_{spec.label()}", _linked(spec)) for spec in specs]
    return cases


def basis_hash(basis: List[Dict[str, int]]) -> str:
    """SHA-256 of the basis in its returned order, vectors as sorted pairs."""
    canonical = [sorted(invariant.items()) for invariant in basis]
    return hashlib.sha256(json.dumps(canonical).encode("utf-8")).hexdigest()


def render(entries: Dict[str, Dict[str, object]]) -> str:
    return json.dumps(entries, indent=2, sort_keys=True) + "\n"


def regenerate() -> Path:
    from repro.petrinet.invariants import t_invariant_basis

    entries = {}
    for name, build in basis_cases():
        basis = t_invariant_basis(build())
        entries[name] = {"invariants": len(basis), "sha256": basis_hash(basis)}
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(render(entries))
    return FIXTURE


if __name__ == "__main__":
    print(f"wrote {regenerate()}")
