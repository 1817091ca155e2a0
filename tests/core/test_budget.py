"""Query budgets and the stream lifecycle.

A request's :class:`~repro.core.pee.QueryBudget` (``QueryRequest.budget``
or the per-call ``budget=`` argument) stops the search early and flags
the answer ``truncated`` — never silently wrong.  A stream finalizes its
stats exactly once, however it ends.
"""

import pytest

from repro.core.api import QueryRequest
from repro.core.config import FlixConfig
from repro.core.framework import Flix
from repro.core.pee import QueryBudget


def results_of(rows):
    return [(r.node, r.distance) for r in rows]


@pytest.fixture()
def flix(figure1_collection):
    return Flix.build(figure1_collection, FlixConfig.naive())


def queries_published(flix):
    """How many finished descendant queries reached the metrics registry
    (the fixture's index has observability on)."""
    counter = flix.metrics().get("flix_queries_total")
    return 0 if counter is None else counter.value(axis="descendants")


def roots(collection, count=4):
    return [
        collection.document_root(name)
        for name in sorted(collection.documents)[:count]
    ]


class TestQueryBudgets:
    def test_budget_validation(self):
        with pytest.raises(ValueError):
            QueryBudget(max_link_hops=0)
        with pytest.raises(ValueError):
            QueryBudget(deadline_seconds=-1.0)

    def test_queue_pop_budget_truncates(self, figure1_collection, flix):
        start = roots(figure1_collection)[0]
        complete = results_of(
            flix.query(QueryRequest.descendants(start)).results
        )
        response = flix.query(
            QueryRequest.descendants(
                start, budget=QueryBudget(max_queue_pops=1)
            )
        )
        partial = results_of(response.results)
        assert response.completeness == "truncated"
        # partial results are a prefix-consistent subset, never inventions
        assert set(partial) <= set(complete)
        assert len(partial) < len(complete)

    def test_deadline_budget_truncates(self, figure1_collection, flix):
        response = flix.query(
            QueryRequest.descendants(
                roots(figure1_collection)[0],
                budget=QueryBudget(deadline_seconds=1e-9),
            )
        )
        assert response.completeness == "truncated"

    def test_generous_budget_stays_complete(self, figure1_collection, flix):
        start = roots(figure1_collection)[0]
        generous = QueryBudget(max_queue_pops=10 ** 6, max_link_hops=10 ** 6)
        response = flix.query(QueryRequest.descendants(start, budget=generous))
        assert results_of(response.results) == results_of(
            flix.query(QueryRequest.descendants(start)).results
        )
        assert response.completeness == "complete"


class TestStreamLifecycle:
    def test_close_is_idempotent(self, flix, figure1_collection):
        stream = flix.pee.find_descendants(roots(figure1_collection)[0])
        next(stream)
        stream.close()
        stream.close()  # second close is a no-op, not an error

    def test_stats_finalized_exactly_once_on_abandoned_stream(
        self, flix, figure1_collection
    ):
        stream = flix.pee.find_descendants(roots(figure1_collection)[0])
        # never started: the generator's finally would never run on its own
        stream.close()
        assert queries_published(flix) == 1  # finalizer published anyway
        stream.close()
        assert queries_published(flix) == 1

    def test_close_after_exhaustion_does_not_republish(
        self, flix, figure1_collection
    ):
        stream = flix.pee.find_descendants(roots(figure1_collection)[0])
        list(stream)
        assert queries_published(flix) == 1
        stream.close()
        assert queries_published(flix) == 1  # one-shot finalizer

    def test_context_manager_closes(self, flix, figure1_collection):
        pee = flix.pee
        with pee.find_descendants(roots(figure1_collection)[0]) as stream:
            next(stream)
        assert stream.stats.queue_pops >= 1
        assert queries_published(flix) == 1

    def test_completeness_counter_emitted(self, flix, figure1_collection):
        start = roots(figure1_collection)[0]
        flix.query(QueryRequest.descendants(start))
        counter = flix.obs.registry.counter("flix_query_completeness_total")
        assert counter.value(level="complete") == 1
        flix.query(
            QueryRequest.descendants(
                start, budget=QueryBudget(max_queue_pops=1)
            )
        )
        assert counter.value(level="truncated") == 1
