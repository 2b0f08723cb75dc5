"""Command-line driver of the corpus differential harness.

Usage::

    python -m repro.corpus --smoke                 # CI: ~58 cases, fixed seed
    python -m repro.corpus --cases 500             # full sweep
    python -m repro.corpus --families chain,tree   # restrict topologies
    python -m repro.corpus --replay triage/<case>/spec.json

Every failing case is shrunk to a minimal reproducer and written to the
triage directory (``--triage-dir``, default ``.corpus_triage``) as a spec
JSON, the emitted FlowC program and an outcome report with the replay
command.  With ``--bench-output`` the sweep's size and pass-rate land in the
``"corpus"`` section of ``BENCH_scheduler.json``
(:func:`repro.util.merge_report`: every other section keeps its bytes, and
an unreadable report is refused with exit code 2 before the sweep and left
untouched).
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.corpus.differential import CaseOutcome, run_case, run_corpus
from repro.corpus.generator import (
    DEFAULT_SEED,
    FAMILIES,
    generate_corpus,
    make_unschedulable_spec,
)
from repro.corpus.shrink import ShrinkResult, shrink_case
from repro.corpus.topologies import (
    ScenarioSpec,
    emit_program,
    spec_from_dict,
    spec_to_dict,
)
from repro.util import ReportError, merge_report, read_report

#: Cases in ``--smoke`` mode: 8 per family plus two expected-failure cases.
SMOKE_CASES = 8 * len(FAMILIES)


def write_triage(
    triage_dir: Path, spec: ScenarioSpec, outcome: CaseOutcome, shrunk: ShrinkResult
) -> Path:
    """Write one failure's reproducer bundle; returns its directory."""
    case_dir = triage_dir / outcome.name
    if case_dir.exists():
        shutil.rmtree(case_dir)
    case_dir.mkdir(parents=True)
    (case_dir / "spec.json").write_text(
        json.dumps(spec_to_dict(shrunk.spec), indent=2, sort_keys=True) + "\n"
    )
    (case_dir / "original_spec.json").write_text(
        json.dumps(spec_to_dict(spec), indent=2, sort_keys=True) + "\n"
    )
    (case_dir / "program.flowc").write_text(emit_program(shrunk.spec))
    report = {
        "outcome": outcome.to_dict(),
        "shrunk_outcome": shrunk.outcome.to_dict(),
        "shrink": shrunk.to_dict(),
        "replay": f"python -m repro.corpus --replay {case_dir / 'spec.json'}",
    }
    (case_dir / "outcome.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return case_dir


def _replay(path: Path) -> int:
    spec = spec_from_dict(json.loads(path.read_text()))
    print(f"replaying {spec.label()} ({spec.size()} processes)")
    print(emit_program(spec))
    outcome = run_case(spec)
    print(json.dumps(outcome.to_dict(), indent=2, sort_keys=True))
    return 0 if outcome.passed else 1


def build_specs(
    count: int, seed: int, families: Optional[Sequence[str]]
) -> List[ScenarioSpec]:
    """The sweep's specs: generated cases plus two expected-failure cases."""
    specs = generate_corpus(count, seed=seed, families=families)
    specs.append(make_unschedulable_spec(seed))
    specs.append(make_unschedulable_spec(seed + 1))
    return specs


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.corpus", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"CI mode: {SMOKE_CASES} generated cases + 2 expected failures, fixed seed",
    )
    parser.add_argument("--cases", type=int, default=SMOKE_CASES, help="generated case count")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="base seed")
    parser.add_argument(
        "--families", default=None,
        help=f"comma-separated subset of {','.join(FAMILIES)}",
    )
    parser.add_argument(
        "--triage-dir", default=".corpus_triage",
        help="directory for shrunk reproducers of failing cases",
    )
    parser.add_argument(
        "--bench-output", default=None,
        help="merge a 'corpus' section into this BENCH_scheduler.json",
    )
    parser.add_argument("--no-shrink", action="store_true", help="skip failure shrinking")
    parser.add_argument("--replay", default=None, help="re-run one triage spec.json")
    args = parser.parse_args(argv)

    if args.replay:
        return _replay(Path(args.replay))
    if args.bench_output:
        try:
            read_report(Path(args.bench_output))
        except ReportError as error:
            print(f"ERROR: {error}; nothing run", file=sys.stderr)
            return 2

    if args.smoke:
        args.cases, args.seed = SMOKE_CASES, DEFAULT_SEED
    families = args.families.split(",") if args.families else None
    specs = build_specs(args.cases, args.seed, families)
    spec_of = {spec.label(): spec for spec in specs}

    def progress(outcome: CaseOutcome) -> None:
        if not outcome.passed:
            print(f"FAIL {outcome.name} [{outcome.stage}] {outcome.message}", flush=True)

    print(
        f"corpus: {len(specs)} cases (seed {args.seed}, "
        f"families {','.join(families or FAMILIES)})",
        flush=True,
    )
    report = run_corpus(specs, progress=progress)

    for family, (passed, total) in sorted(report.by_family().items()):
        print(f"  {family:<14} {passed}/{total}")
    print(
        f"{report.passed}/{report.total} passed "
        f"({report.pass_rate:.1%}) in {report.elapsed_seconds:.1f}s"
    )

    if report.failures and not args.no_shrink:
        triage_dir = Path(args.triage_dir)
        for outcome in report.failures:
            shrunk = shrink_case(spec_of[outcome.name], outcome)
            case_dir = write_triage(triage_dir, spec_of[outcome.name], outcome, shrunk)
            print(
                f"shrunk {outcome.name}: {shrunk.original.size()} -> "
                f"{shrunk.spec.size()} processes via {shrunk.steps or ['(no reduction)']}; "
                f"triage at {case_dir}"
            )

    if args.bench_output:
        section = {"seed": args.seed, **report.to_dict()}
        try:
            merge_report(Path(args.bench_output), {"corpus": section})
        except ReportError as error:
            print(f"ERROR: {error}; not written", file=sys.stderr)
            return 2
        print(f"'corpus' section written to {args.bench_output}")

    return 0 if not report.failures else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
