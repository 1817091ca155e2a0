"""Coordinator correctness: parity, caching, budgets, degradation.

The headline invariant: a ``ShardCoordinator`` answer is byte-identical
to serial ``Flix.query`` — same results in the same order, and for the
``distributed`` mode the same per-query stats too (the coordinator runs
the very same priority-queue loop, only the expansions travel).
"""

from __future__ import annotations

import pytest

from repro.core.api import QueryRequest
from repro.core.config import CacheConfig
from repro.core.pee import QueryBudget
from repro.shard.distributed import ExpansionLost

from tests.shard.conftest import in_process_cluster


def _all_kind_requests(collection):
    roots = [
        collection.document_root(name) for name in sorted(collection.documents)
    ]
    a, b = roots[0], roots[1]
    return [
        ("descendants", QueryRequest.descendants(a)),
        ("type_query", QueryRequest.type_query("article", tag="author")),
        ("ancestors", QueryRequest.ancestors(a + 1)),
        ("children", QueryRequest.children(a)),
        ("path", QueryRequest.find_path(a, ["author"])),
        ("connections", QueryRequest.connections(a)),
        ("cost", QueryRequest.cost(a, b)),
        ("test", QueryRequest.test(a, b)),
    ]


def _signature(response):
    return (
        [repr(row) for row in response.results],
        response.value,
        response.stats.completeness,
    )


def _stats_tuple(stats):
    return (
        stats.queue_pops,
        stats.link_traversals,
        stats.meta_document_visits,
        stats.entries_dropped,
        stats.results_returned,
        stats.results_suppressed,
        stats.covered_probes,
        stats.completeness,
    )


class TestParity:
    @pytest.mark.parametrize("mode", ["delegate", "distributed"])
    def test_all_kinds_byte_identical_to_serial(self, deployment, mode):
        requests = _all_kind_requests(deployment.collection)
        serial = {
            name: deployment.flix.query(request) for name, request in requests
        }
        with in_process_cluster(deployment, 3, cross_shard=mode) as (
            coordinator, _workers,
        ):
            for name, request in requests:
                response = coordinator.query(request)
                assert _signature(response) == _signature(serial[name]), name

    def test_distributed_stats_equal_serial(self, deployment):
        # the distributed loop IS the serial loop; the counters must agree
        roots = sorted(deployment.collection.documents)
        start = deployment.collection.document_root(roots[0])
        request = QueryRequest.descendants(start)
        serial = deployment.flix.query(request)
        with in_process_cluster(deployment, 3, cross_shard="distributed") as (
            coordinator, _workers,
        ):
            response = coordinator.query(request)
        assert _stats_tuple(response.stats) == _stats_tuple(serial.stats)

    def test_unknown_node_raises_key_error_through_the_wire(self, deployment):
        missing = max(deployment.flix.layout.meta_of) + 1000
        with in_process_cluster(deployment, 2) as (coordinator, _workers):
            with pytest.raises(KeyError):
                coordinator.query(QueryRequest.descendants(missing))

    def test_limit_applied_at_coordinator(self, deployment):
        start = deployment.collection.document_root(
            sorted(deployment.collection.documents)[0]
        )
        request = QueryRequest.descendants(start, limit=3)
        serial = deployment.flix.query(request)
        with in_process_cluster(deployment, 2, cross_shard="distributed") as (
            coordinator, _workers,
        ):
            response = coordinator.query(request)
        assert _signature(response) == _signature(serial)
        assert len(response.results) == 3


class TestCaching:
    def test_repeat_query_served_from_cache(self, deployment):
        start = deployment.collection.document_root(
            sorted(deployment.collection.documents)[0]
        )
        request = QueryRequest.descendants(start)
        with in_process_cluster(
            deployment, 2, cache=CacheConfig(maxsize=64, shards=2)
        ) as (coordinator, _workers):
            first = coordinator.query(request)
            second = coordinator.query(request)
            assert not first.from_cache
            assert second.from_cache
            assert _signature(second) == _signature(first)
            stats = coordinator.cache_stats()
            assert stats.hits == 1
            assert stats.misses == 1

    def test_limited_request_slices_cached_superset(self, deployment):
        start = deployment.collection.document_root(
            sorted(deployment.collection.documents)[0]
        )
        with in_process_cluster(
            deployment, 2, cache=CacheConfig(maxsize=64, shards=2)
        ) as (coordinator, _workers):
            full = coordinator.query(QueryRequest.descendants(start))
            limited = coordinator.query(
                QueryRequest.descendants(start, limit=2)
            )
            assert limited.from_cache
            assert [repr(r) for r in limited.results] == [
                repr(r) for r in full.results[:2]
            ]

    def test_cache_survives_invalidation_cycle(self, deployment):
        # entries stored after invalidate_all() must hit (generation
        # stamping: the regression behind the bench's cold/warm split)
        start = deployment.collection.document_root(
            sorted(deployment.collection.documents)[0]
        )
        request = QueryRequest.descendants(start)
        with in_process_cluster(
            deployment, 2, cache=CacheConfig(maxsize=64, shards=2)
        ) as (coordinator, _workers):
            coordinator.query(request)
            coordinator.invalidate_cache()
            refreshed = coordinator.query(request)
            assert not refreshed.from_cache
            assert coordinator.query(request).from_cache

    def test_budgeted_answers_never_cached(self, deployment):
        # the last synthetic document reaches the most residual links, so
        # a one-pop budget is guaranteed to stop the search early
        start = deployment.collection.document_root(
            sorted(deployment.collection.documents)[-1]
        )
        budget = QueryBudget(max_queue_pops=1)
        with in_process_cluster(
            deployment, 2, cache=CacheConfig(maxsize=64, shards=2)
        ) as (coordinator, _workers):
            truncated = coordinator.query(
                QueryRequest.descendants(start), budget=budget
            )
            assert truncated.stats.completeness == "truncated"
            follow_up = coordinator.query(QueryRequest.descendants(start))
            assert not follow_up.from_cache
            assert follow_up.stats.is_complete

    def test_request_budget_applies_and_truncates(self, deployment):
        start = deployment.collection.document_root(
            sorted(deployment.collection.documents)[-1]
        )
        request = QueryRequest.descendants(
            start, budget=QueryBudget(max_queue_pops=1)
        )
        with in_process_cluster(deployment, 2) as (coordinator, _workers):
            response = coordinator.query(request)
            assert response.stats.completeness == "truncated"
            assert _signature(response) == _signature(
                deployment.flix.query(request)
            )


class TestDegradation:
    def test_delegation_fails_over_to_a_live_shard(self, deployment):
        requests = _all_kind_requests(deployment.collection)
        serial = {
            name: deployment.flix.query(request) for name, request in requests
        }
        with in_process_cluster(deployment, 3) as (coordinator, workers):
            workers[0].close()  # every request owned by shard 0 must fail over
            for name, request in requests:
                response = coordinator.query(request)
                assert _signature(response) == _signature(serial[name]), name
                assert response.stats.is_complete, name
            health = coordinator.health()
            assert health["healthy"] == 2
            assert not health["shards"][0]["healthy"]

    def test_all_shards_down_degrades_instead_of_raising(self, deployment):
        start = deployment.collection.document_root(
            sorted(deployment.collection.documents)[0]
        )
        with in_process_cluster(deployment, 2) as (coordinator, workers):
            for worker in workers:
                worker.close()
            response = coordinator.query(QueryRequest.descendants(start))
            assert response.stats.completeness == "degraded"
            assert response.results == []
            assert coordinator.health()["healthy"] == 0

    def test_recovered_worker_rejoins_after_health_check(self, deployment):
        with in_process_cluster(deployment, 2) as (coordinator, _workers):
            coordinator._mark_health(1, False)
            health = coordinator.health()  # ping succeeds, flips it back
            assert health["healthy"] == 2

    def test_distributed_merge_stays_ordered_under_a_degraded_shard(
        self, deployment
    ):
        """The satellite scenario: one shard's expansions are lost, the
        merged stream is flagged ``truncated`` and is a strict subset of
        the serial answer, in the serial stream's order."""
        shard_counts = 3
        roots = sorted(deployment.collection.documents)
        # the last document's closure spans the most shards
        start = deployment.collection.document_root(roots[-1])
        request = QueryRequest.descendants(start)
        serial = deployment.flix.query(request)
        serial_reprs = [repr(row) for row in serial.results]
        with in_process_cluster(
            deployment, shard_counts, cross_shard="distributed"
        ) as (coordinator, _workers):
            shard_map = coordinator._map
            # the search must actually span shards for the loss to matter
            home = shard_map.shard_of_node(start)
            assert len(shard_map.reachable_shards(home)) > 1
            dead_shard = next(
                s for s in shard_map.reachable_shards(home) if s != home
            )
            real_expand = coordinator._distributed._expand_rpc

            def lossy_expand(meta_id, payload):
                if shard_map.shard_of_meta[meta_id] == dead_shard:
                    raise ExpansionLost(dead_shard)
                return real_expand(meta_id, payload)

            coordinator._distributed._expand_rpc = lossy_expand
            response = coordinator.query(request)

        assert response.stats.completeness == "truncated"
        rows = response.results
        assert 0 < len(rows) < len(serial.results)
        # everything returned is correct: a subsequence of the serial
        # stream, each row with its serial distance
        positions = [serial_reprs.index(repr(row)) for row in rows]
        assert positions == sorted(positions)
