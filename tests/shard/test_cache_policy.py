"""The result-cache policy (``repro.core.api.CacheSlot``), checked once
against both surfaces that apply it: in-process ``Flix.query`` and a
two-worker ``ShardCoordinator.query``."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.core.api import CacheSlot, QueryRequest
from repro.core.config import CacheConfig
from repro.core.framework import Flix
from repro.core.pee import QueryBudget, QueryStats

from tests.shard.conftest import in_process_cluster

CACHE = CacheConfig(maxsize=64, shards=2)


@pytest.fixture(params=["flix", "coordinator"])
def surface(request, deployment):
    """``query`` / ``cache_stats`` / ``invalidate`` of one surface, plus
    ``mid_evaluation(callback)``: run ``callback`` once, while the next
    cache miss is being evaluated."""
    if request.param == "flix":
        flix = Flix.load(deployment.collection, deployment.index_dir)
        flix.configure_cache(CACHE)

        def mid_evaluation(callback):
            inner = flix.pee

            class Hooked:
                def __getattr__(self, name):
                    return getattr(inner, name)

                def find_descendants(self, *args, **kwargs):
                    callback()
                    return inner.find_descendants(*args, **kwargs)

            flix.pee = Hooked()

        yield SimpleNamespace(
            query=flix.query, cache_stats=flix.cache_stats,
            invalidate=flix.invalidate_caches, mid_evaluation=mid_evaluation,
        )
        return
    with in_process_cluster(deployment, 2, cache=CACHE) as (coordinator, _):

        def mid_evaluation(callback):
            for client in coordinator._clients:
                def call(verb, payload, _call=client.call):
                    callback()
                    return _call(verb, payload)

                client.call = call

        yield SimpleNamespace(
            query=coordinator.query, cache_stats=coordinator.cache_stats,
            invalidate=coordinator.invalidate_cache,
            mid_evaluation=mid_evaluation,
        )


@pytest.fixture()
def nodes(deployment):
    collection = deployment.collection
    names = sorted(collection.documents)
    # the last synthetic document reaches the most residual links, so a
    # one-pop budget is guaranteed to stop its search early
    return SimpleNamespace(
        first=collection.document_root(names[0]),
        last=collection.document_root(names[-1]),
    )


def _rows(response):
    return [repr(row) for row in response.results]


def test_complete_unbudgeted_unlimited_answer_is_stored(surface, nodes):
    request = QueryRequest.descendants(nodes.first)
    first = surface.query(request)
    second = surface.query(request)
    assert not first.from_cache and second.from_cache
    assert _rows(second) == _rows(first)
    assert second.stats == first.stats  # the original evaluation's
    stats = surface.cache_stats()
    assert (stats.hits, stats.misses) == (1, 1)


def test_limited_request_is_sliced_from_a_superset_never_stored(
    surface, nodes
):
    limited = QueryRequest.descendants(nodes.first, limit=2)
    surface.query(limited)
    assert not surface.query(limited).from_cache
    full = surface.query(QueryRequest.descendants(nodes.first))
    sliced = surface.query(limited)
    assert sliced.from_cache
    assert _rows(sliced) == _rows(full)[:2]


def test_budget_argument_is_looked_up_but_never_stored(surface, nodes):
    request = QueryRequest.descendants(nodes.first)
    generous = QueryBudget(max_queue_pops=10**6)
    assert surface.query(request, budget=generous).is_complete
    assert surface.cache_stats().misses == 1  # it did look
    assert not surface.query(request).from_cache  # complete, yet not stored
    assert surface.query(request, budget=generous).from_cache


@pytest.mark.parametrize(
    "uncacheable",
    [
        lambda r: r.with_budget(QueryBudget(max_queue_pops=10**6)),
        lambda r: r.with_explain(),
    ],
    ids=["request.budget", "explain"],
)
def test_request_budget_and_explain_skip_the_cache(
    surface, nodes, uncacheable
):
    plain = QueryRequest.descendants(nodes.first)
    surface.query(plain)  # a servable entry exists
    before = surface.cache_stats().lookups
    assert not surface.query(uncacheable(plain)).from_cache
    assert surface.cache_stats().lookups == before


def test_truncated_answer_is_not_stored(surface, nodes):
    request = QueryRequest.descendants(nodes.last)
    cut = surface.query(request, budget=QueryBudget(max_queue_pops=1))
    assert cut.completeness == "truncated"
    follow_up = surface.query(request)
    assert not follow_up.from_cache and follow_up.is_complete


@pytest.mark.parametrize("level", ["truncated", "degraded"])
def test_incomplete_answer_is_not_stored_even_unbudgeted(nodes, level):
    # no surface yields an incomplete *unbudgeted* answer on demand (it
    # takes a resilience default or a dead shard); the gate itself:
    cache = CACHE.build()
    request = QueryRequest.descendants(nodes.first)
    CacheSlot(cache, request, 0).store(
        [], None, QueryStats(completeness=level), None
    )
    assert len(cache) == 0


def test_scalar_answers_are_stored_including_a_negative_test(
    surface, nodes, deployment
):
    unreachable = QueryRequest.test(nodes.first, nodes.last)
    if deployment.flix.query(unreachable).value is not None:
        unreachable = QueryRequest.test(nodes.last, nodes.first)
    child = deployment.flix.query(QueryRequest.children(nodes.first))
    requests = [
        unreachable,
        QueryRequest.test(nodes.first, child.results[0].node),
        QueryRequest.cost(nodes.first, child.results[0].node),
    ]
    for request in requests:
        first = surface.query(request)
        second = surface.query(request)
        assert not first.from_cache and second.from_cache
        assert second.value == first.value
    assert surface.query(unreachable).value is None


def test_store_stamped_with_a_stale_generation_is_dropped(surface, nodes):
    request = QueryRequest.descendants(nodes.first)
    fired = []

    def invalidate_once():
        if not fired:
            fired.append(True)
            surface.invalidate()

    surface.mid_evaluation(invalidate_once)
    assert not surface.query(request).from_cache
    assert fired
    # the answer evaluated across the invalidation was not kept ...
    assert not surface.query(request).from_cache
    # ... while one evaluated after it is
    assert surface.query(request).from_cache
