"""Seeded scenario corpus with whole-pipeline differential testing.

The corpus layer closes the loop the paper draws: not only must the EP
search find a schedule, the synthesized task code must *behave identically*
to the original concurrent specification.  Every generated case travels
FlowC parse -> compile -> link -> EP schedule -> codegen -> both
simulators, and the per-channel I/O traces are compared.

* :mod:`repro.corpus.topologies` -- pure-data scenario specs and their
  FlowC / netlist / manifest realisations.
* :mod:`repro.corpus.generator` -- seeded generation over the topology
  families (chain, tree, fork-join, layered, diamond, feedback,
  multi-source).
* :mod:`repro.corpus.differential` -- the staged pipeline runner and trace
  normalization / equivalence.
* :mod:`repro.corpus.shrink` -- delta-debugging of failing specs to minimal
  reproducers.
* ``python -m repro.corpus`` -- the CLI (:mod:`repro.corpus.cli`).
"""

from repro.corpus.differential import (
    STAGES,
    CaseOutcome,
    CorpusReport,
    normalize_trace,
    run_case,
    run_corpus,
    trace_diff,
    traces_equivalent,
)
from repro.corpus.generator import (
    DEFAULT_SEED,
    FAMILIES,
    generate_corpus,
    generate_spec,
    make_unschedulable_spec,
)
from repro.corpus.shrink import ShrinkResult, shrink_case
from repro.corpus.topologies import (
    CorpusCase,
    EdgeSpec,
    ProcessSpec,
    ScenarioSpec,
    SpecError,
    SubsystemSpec,
    build_case,
    build_manifest,
    build_network,
    check_spec,
    emit_program,
    spec_from_dict,
    spec_to_dict,
    stimulus_for,
)

__all__ = [
    "STAGES",
    "CaseOutcome",
    "CorpusCase",
    "CorpusReport",
    "DEFAULT_SEED",
    "EdgeSpec",
    "FAMILIES",
    "ProcessSpec",
    "ScenarioSpec",
    "ShrinkResult",
    "SpecError",
    "SubsystemSpec",
    "build_case",
    "build_manifest",
    "build_network",
    "check_spec",
    "emit_program",
    "generate_corpus",
    "generate_spec",
    "make_unschedulable_spec",
    "normalize_trace",
    "run_case",
    "run_corpus",
    "shrink_case",
    "spec_from_dict",
    "spec_to_dict",
    "stimulus_for",
    "trace_diff",
    "traces_equivalent",
]
