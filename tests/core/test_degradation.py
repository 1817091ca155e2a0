"""Graceful degradation of the PEE: budgets, BFS fallback, completeness.

The acceptance bar for the resilience layer: a hard-failed meta-document
index yields *partial-to-identical* results flagged ``degraded`` instead
of an exception, and budget-limited queries stop early flagged
``truncated`` — never silently wrong.
"""

import pytest

from repro.core.api import QueryRequest
from repro.core.config import FlixConfig
from repro.core.framework import Flix
from repro.core.pee import QueryBudget
from repro.faults import FaultPlan, FaultyIndex
from repro.storage.errors import PermanentStorageError


def results_of(stream):
    return [(r.node, r.distance) for r in stream]


@pytest.fixture()
def resilient_flix(figure1_collection):
    config = FlixConfig.naive().with_resilience()
    return Flix.build(figure1_collection, config)


def roots(collection, count=4):
    return [
        collection.document_root(name)
        for name in sorted(collection.documents)[:count]
    ]


class TestMissingIndexFallback:
    def test_results_identical_and_flagged_degraded(
        self, figure1_collection, resilient_flix
    ):
        start = roots(figure1_collection)[0]
        healthy = results_of(resilient_flix.pee.find_descendants(start))
        assert resilient_flix.pee.last_stats.completeness == "complete"

        victim = resilient_flix.meta_documents[0]
        victim.index = None
        stream = resilient_flix.pee.find_descendants(start)
        assert results_of(stream) == healthy
        assert stream.completeness == "degraded"
        assert resilient_flix.pee.last_stats.fallback_meta_documents == 1
        assert resilient_flix.degraded_meta_ids == [victim.meta_id]

    def test_fallback_is_sticky_and_stays_degraded(
        self, figure1_collection, resilient_flix
    ):
        start = roots(figure1_collection)[0]
        resilient_flix.meta_documents[0].index = None
        results_of(resilient_flix.pee.find_descendants(start))
        second = resilient_flix.pee.find_descendants(start)
        results_of(second)
        assert second.completeness == "degraded"
        # the sticky fallback is reused, not re-counted as an activation
        assert second.stats.fallback_meta_documents == 0

    def test_ancestor_axis_also_degrades(
        self, figure1_collection, resilient_flix
    ):
        start = roots(figure1_collection)[0]
        healthy = results_of(resilient_flix.pee.find_ancestors(start))
        fresh = Flix.build(
            figure1_collection, FlixConfig.naive().with_resilience()
        )
        fresh.meta_documents[0].index = None
        stream = fresh.pee.find_ancestors(start)
        assert results_of(stream) == healthy
        assert stream.completeness == "degraded"

    def test_without_resilience_missing_index_raises(
        self, figure1_collection
    ):
        flix = Flix.build(figure1_collection, FlixConfig.naive())
        flix.meta_documents[0].index = None
        start = roots(figure1_collection)[0]
        with pytest.raises(PermanentStorageError, match="fallback is disabled"):
            results_of(flix.pee.find_descendants(start))

    def test_fallback_disabled_by_config(self, figure1_collection):
        config = FlixConfig.naive().with_resilience(allow_query_fallback=False)
        flix = Flix.build(figure1_collection, config)
        flix.meta_documents[0].index = None
        with pytest.raises(PermanentStorageError):
            results_of(
                flix.pee.find_descendants(roots(figure1_collection)[0])
            )


class TestFailingIndexFallback:
    def test_storage_errors_trigger_fallback_with_identical_results(
        self, figure1_collection, resilient_flix
    ):
        expected = {
            start: results_of(resilient_flix.pee.find_descendants(start))
            for start in roots(figure1_collection)
        }
        broken = Flix.build(
            figure1_collection, FlixConfig.naive().with_resilience()
        )
        for meta in broken.meta_documents:
            meta.index = FaultyIndex(meta.index, FaultPlan.hard_failure())
        for start, healthy in expected.items():
            stream = broken.pee.find_descendants(start)
            assert results_of(stream) == healthy
            assert stream.completeness == "degraded"
        assert broken.degraded_meta_ids  # at least one fallback activated

    def test_connection_test_survives_broken_index(
        self, figure1_collection, resilient_flix
    ):
        start = roots(figure1_collection)[0]
        healthy = results_of(resilient_flix.pee.find_descendants(start))
        target = next(
            (node for node, dist in healthy if dist > 0), None
        )
        if target is None:
            pytest.skip("document root has no descendants")
        assert resilient_flix.query(QueryRequest.test(start, target)).value is not None
        for meta in resilient_flix.meta_documents:
            meta.index = FaultyIndex(meta.index, FaultPlan.hard_failure())
        resilient_flix.pee._fallbacks.clear()
        assert resilient_flix.query(QueryRequest.test(start, target)).value is not None


class TestQueryBudgets:
    def test_budget_validation(self):
        with pytest.raises(ValueError):
            QueryBudget(max_link_hops=0)
        with pytest.raises(ValueError):
            QueryBudget(deadline_seconds=-1.0)
        assert QueryBudget().is_noop
        assert not QueryBudget(max_queue_pops=5).is_noop

    def test_from_resilience(self):
        from repro.core.config import ResilienceConfig

        assert QueryBudget.from_resilience(None) is None
        assert QueryBudget.from_resilience(ResilienceConfig()) is None
        budget = QueryBudget.from_resilience(
            ResilienceConfig(max_link_hops=7, max_queue_pops=9)
        )
        assert budget.max_link_hops == 7
        assert budget.max_queue_pops == 9

    def test_queue_pop_budget_truncates(self, figure1_collection):
        config = FlixConfig.naive().with_resilience(max_queue_pops=1)
        flix = Flix.build(figure1_collection, config)
        full = Flix.build(figure1_collection, FlixConfig.naive())
        start = roots(figure1_collection)[0]
        complete = results_of(full.pee.find_descendants(start))
        stream = flix.pee.find_descendants(start)
        partial = results_of(stream)
        assert stream.completeness == "truncated"
        # partial results are a prefix-consistent subset, never inventions
        assert set(partial) <= set(complete)
        assert len(partial) < len(complete)

    def test_deadline_budget_truncates(self, figure1_collection):
        config = FlixConfig.naive().with_resilience(
            query_deadline_seconds=1e-9
        )
        flix = Flix.build(figure1_collection, config)
        stream = flix.pee.find_descendants(roots(figure1_collection)[0])
        results_of(stream)
        assert stream.completeness == "truncated"

    def test_generous_budget_stays_complete(self, figure1_collection):
        config = FlixConfig.naive().with_resilience(
            max_queue_pops=10 ** 6, max_link_hops=10 ** 6
        )
        flix = Flix.build(figure1_collection, config)
        full = Flix.build(figure1_collection, FlixConfig.naive())
        start = roots(figure1_collection)[0]
        stream = flix.pee.find_descendants(start)
        assert results_of(stream) == results_of(
            full.pee.find_descendants(start)
        )
        assert stream.completeness == "complete"


class TestQueryStreamLifecycle:
    def test_close_is_idempotent(self, resilient_flix, figure1_collection):
        stream = resilient_flix.pee.find_descendants(
            roots(figure1_collection)[0]
        )
        next(stream)
        stream.close()
        stream.close()  # second close is a no-op, not an error

    def test_stats_finalized_exactly_once_on_abandoned_stream(
        self, resilient_flix, figure1_collection
    ):
        pee = resilient_flix.pee
        marker = pee.last_stats
        stream = pee.find_descendants(roots(figure1_collection)[0])
        # never started: the generator's finally would never run on its own
        stream.close()
        assert pee.last_stats is not marker  # finalizer published anyway

    def test_close_after_exhaustion_does_not_republish(
        self, resilient_flix, figure1_collection
    ):
        pee = resilient_flix.pee
        stream = pee.find_descendants(roots(figure1_collection)[0])
        list(stream)
        published = pee.last_stats
        stream.close()
        assert pee.last_stats is published  # one-shot finalizer

    def test_context_manager_closes(self, resilient_flix, figure1_collection):
        pee = resilient_flix.pee
        with pee.find_descendants(roots(figure1_collection)[0]) as stream:
            next(stream)
        assert pee.last_stats.queue_pops >= 1

    def test_completeness_counter_emitted(self, figure1_collection):
        config = FlixConfig.naive().with_resilience()
        flix = Flix.build(figure1_collection, config)
        start = roots(figure1_collection)[0]
        list(flix.pee.find_descendants(start))
        counter = flix.obs.registry.counter("flix_query_completeness_total")
        assert counter.value(level="complete") >= 1
        flix.meta_documents[0].index = None
        list(flix.pee.find_descendants(start))
        assert counter.value(level="degraded") >= 1
        fallbacks = flix.obs.registry.counter("flix_query_fallbacks_total")
        assert fallbacks.value(cause="missing") == 1
