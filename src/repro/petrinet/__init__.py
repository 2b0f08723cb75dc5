"""Petri net kernel used as the formal substrate of the scheduling flow.

The paper models the linked network of FlowC processes as a single Petri net
(Section 2).  This package provides:

* :mod:`repro.petrinet.net` -- places, transitions, weighted arcs, nets.
* :mod:`repro.petrinet.marking` -- immutable markings with firing rules.
* :mod:`repro.petrinet.analysis` -- equal conflict sets, choice-place
  classification, place degrees, unique-choice checks.
* :mod:`repro.petrinet.reachability` -- reachability graph exploration and
  the boundedness check on it.
* :mod:`repro.petrinet.invariants` -- incidence matrix and the exact
  minimal-support T-invariant basis (sparse Farkas elimination).
* :mod:`repro.petrinet.covering` -- heuristic binate covering solver used by
  the candidate-invariant selection of Section 5.5.2.
* :mod:`repro.petrinet.indexed` -- the integer-dense core the hot paths run
  on: dense place/transition IDs, tuple markings, precomputed firing deltas
  and incremental enabled-set maintenance (see ``docs/architecture.md``).
* :mod:`repro.petrinet.fingerprint` -- stable structural hashes keying the
  warm-start caches across net objects.
"""

from repro.petrinet.indexed import IndexedNet, MarkingStore
from repro.petrinet.marking import Marking
from repro.petrinet.net import (
    ArcError,
    PetriNet,
    Place,
    PetriNetError,
    SourceKind,
    Transition,
)
from repro.petrinet.analysis import (
    ChoiceKind,
    StructuralAnalysis,
    compute_ecs_partition,
    place_degree,
)
from repro.petrinet.fingerprint import incidence_fingerprint, structural_fingerprint
from repro.petrinet.reachability import (
    ReachabilityGraph,
    ReachabilityNode,
    build_reachability_graph,
)
from repro.petrinet.invariants import (
    InvariantBasis,
    incidence_matrix,
    invariant_basis,
    t_invariant_basis,
    is_t_invariant,
)
from repro.petrinet.covering import BinateCoveringProblem, solve_binate_covering

__all__ = [
    "ArcError",
    "BinateCoveringProblem",
    "ChoiceKind",
    "IndexedNet",
    "InvariantBasis",
    "Marking",
    "MarkingStore",
    "PetriNet",
    "PetriNetError",
    "Place",
    "ReachabilityGraph",
    "ReachabilityNode",
    "SourceKind",
    "StructuralAnalysis",
    "Transition",
    "build_reachability_graph",
    "compute_ecs_partition",
    "incidence_fingerprint",
    "incidence_matrix",
    "invariant_basis",
    "is_t_invariant",
    "place_degree",
    "solve_binate_covering",
    "structural_fingerprint",
    "t_invariant_basis",
]
