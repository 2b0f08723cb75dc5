"""The whole-search oracle of the EP search: the search vs its walked twin.

The search decides Definition 4.5 on every node and lookahead probe with
the incremental checker (``_EPSearch._irrelevant``, fed the node's
over-degree places).  :class:`WalkedSearch` is the same search with that
one method overridden: it decides Definition 4.5 by the exact walk
(:func:`~repro.scheduling.termination.witnessed_by`) over the DFS path's
``(total, vec)`` pairs and ignores the over-degree places, so a wrong
over-degree set is caught as well as a wrong checker verdict.  Both must
terminate on the identical node set, so the whole search is its own
oracle: :func:`searched_and_walked` asserts that the two reproduce each
other byte for byte -- schedule, failure reason, tree size and every
counter.

Only a search that meets an irrelevant marking compares a ``True``
verdict, and on the nets here only unschedulable ones do (Figure 4b and
the corpus specs of ``make_unschedulable_spec``); ``WalkedSearch`` counts
its verdicts so the tests can tell.

Shared by the test modules that run the oracle (boundaries, the generated
net sweep, the golden and corpus cases).  :func:`irrelevance_mask` is the
third, independent form of Definition 4.5 the random-path checks compare
against: the row rule alone, with no index, no walk and no facade.
"""

from __future__ import annotations

from repro.scheduling.ep import SchedulerOptions, _EPSearch
from repro.scheduling.serialize import schedule_fingerprint, schedule_to_json
from repro.scheduling.termination import witnessed_by


class WalkedSearch(_EPSearch):
    """The EP search deciding Definition 4.5 by the exact walk over the path."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: how often the walk said irrelevant, and how often not
        self.irrelevant_verdicts = 0
        self.relevant_verdicts = 0

    def _irrelevant(self, vec, total, over) -> bool:
        nodes = self.tree.nodes
        verdict = witnessed_by(
            self._degrees,
            vec,
            total,
            ((nodes[n].total_tokens, nodes[n].vec) for n in self.tree._path),
        )
        if verdict:
            self.irrelevant_verdicts += 1
        else:
            self.relevant_verdicts += 1
        return verdict


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


def run_search(net, source, search=_EPSearch, **options):
    """One ``search`` (a class) under ``SchedulerOptions(**options)``;
    returns (search, result)."""
    searcher = search(net, source, SchedulerOptions(**options))
    return searcher, searcher.run()


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


def walked_pair(net, source, **options):
    """The search and its walked twin; asserts they agree.

    Returns ``(search, result, walked)``: the search (its checker's
    counters), its result and the walked search (its verdict counts).
    """
    search, result = run_search(net, source, **options)
    walked, walked_result = run_search(net, source, WalkedSearch, **options)
    assert observables(result) == observables(walked_result)
    return search, result, walked


def searched_and_walked(net, source, **options):
    """The search's result, after asserting its walked twin reproduces it."""
    return walked_pair(net, source, **options)[1]
