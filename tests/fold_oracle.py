"""The whole-search oracle of the EP search: folded vs ``holds`` fallback.

The search folds the built-in termination leaves into plain per-node checks
(:func:`~repro.scheduling.termination.fold_termination`); any leaf the fold
does not know sends every node and lookahead probe through
``termination.holds`` instead.  The two paths must terminate on the
identical node set, so the whole search is its own oracle:
:func:`unfolded` re-types every leaf to a subclass, which the fold leaves
in ``extra``, and the folded search must reproduce that fallback search
byte for byte -- schedule, failure reason, tree size and every counter.
The irrelevance leaf's subclass decides by the exact walk over the
ancestors, so the incremental checker the folded search uses is compared
against Definition 4.5 itself, not against a second call of the checker.

Shared by the test modules that run the oracle (boundaries, the generated
net sweep, the golden and corpus cases).  :func:`irrelevance_mask` is the
third, independent form of Definition 4.5 the random-path checks compare
against: the row rule alone, with no index, no walk and no facade.
"""

from __future__ import annotations

from dataclasses import fields
from functools import lru_cache

from repro.scheduling.ep import SchedulerOptions, _EPSearch
from repro.scheduling.serialize import schedule_fingerprint, schedule_to_json
from repro.scheduling.termination import (
    CompositeCondition,
    IrrelevanceCriterion,
    TerminationCondition,
    default_termination,
)


class WalkedIrrelevance(IrrelevanceCriterion):
    """Definition 4.5 by the exact O(depth) walk over the ancestors."""

    def holds(self, tree, node) -> bool:
        totals, vec_of = tree.total_tokens_of, tree.vec_of
        return self.witnessed_by(
            tree.inet,
            vec_of(node),
            totals(node),
            ((totals(a), vec_of(a)) for a in tree.ancestors_of(node)),
        )


def irrelevance_mask(rows, ancestor, degrees):
    """Per row: irrelevant w.r.t. ``ancestor`` under Definition 4.5 (b), (c).

    A row is irrelevant when it covers the ancestor, differs from it, and
    grew only on places the ancestor already saturates (``ancestor[p] >=
    degrees[p]``).  Reachability from the ancestor, condition (a), is the
    caller's knowledge.
    """
    ancestor = tuple(ancestor)
    return [
        all(count >= before for count, before in zip(row, ancestor))
        and tuple(row) != ancestor
        and not any(
            count > before and before < degree
            for count, before, degree in zip(row, ancestor, degrees)
        )
        for row in rows
    ]


@lru_cache(maxsize=None)
def _unfolded_type(kind: type) -> type:
    if kind is IrrelevanceCriterion:
        return WalkedIrrelevance
    return type(f"Unfolded{kind.__name__}", (kind,), {})


def init_fields(condition: TerminationCondition) -> dict:
    """The dataclass ``__init__`` fields of a built-in leaf."""
    return {f.name: getattr(condition, f.name) for f in fields(condition) if f.init}


def unfolded(condition: TerminationCondition) -> TerminationCondition:
    """``condition`` with every leaf re-typed to a subclass.

    The fold matches the built-in leaves by exact type, so the copies land
    in ``FoldedTermination.extra`` and a search under the result decides
    every node and probe through ``termination.holds``.
    """
    if isinstance(condition, CompositeCondition):
        return CompositeCondition([unfolded(leaf) for leaf in condition.conditions])
    return _unfolded_type(type(condition))(**init_fields(condition))


def run_search(net, source, termination, **options):
    """One ``_EPSearch`` under ``termination``; returns (search, result)."""
    search = _EPSearch(
        net, source, SchedulerOptions(termination=termination, **options)
    )
    return search, search.run()


def observables(result):
    """Everything two equivalent searches must agree on, byte for byte."""
    return (
        result.success,
        result.tree_nodes,
        result.counters.as_dict(),
        schedule_to_json(result.schedule)
        if result.schedule is not None
        else result.failure_reason,
        schedule_fingerprint(result.schedule) if result.schedule is not None else None,
    )


def folded_and_fallback(net, source, termination=None, **options):
    """The folded search and its holds-fallback twin; asserts they agree.

    Returns the folded search's result.
    """
    termination = termination or default_termination(
        net, max_nodes=options.get("max_nodes", 200_000)
    )
    folded_search, folded = run_search(net, source, termination, **options)
    fallback_search, fallback = run_search(net, source, unfolded(termination), **options)
    assert folded_search._fold is not None
    assert fallback_search._fold is None
    assert observables(folded) == observables(fallback)
    return folded
