"""Correctness of the shared sharded LRU cache, unit and integration."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.collection.document import XmlDocument
from repro.core.api import QueryRequest
from repro.core.cache import ShardedLRUCache
from repro.core.config import CacheConfig, FlixConfig
from repro.core.framework import Flix
from repro.core.pee import QueryStream
from repro.datasets.dblp import DblpSpec, generate_dblp


class TestShardedLRUCacheUnit:
    def test_boxed_get_distinguishes_cached_none(self):
        cache = ShardedLRUCache(maxsize=8, shards=2)
        assert cache.get("missing") is None
        cache.put("negative", None)
        assert cache.get("negative") == (None,)  # a hit, not a miss
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardedLRUCache(maxsize=0)
        with pytest.raises(ValueError):
            ShardedLRUCache(maxsize=8, shards=0)

    def test_shards_clamped_to_maxsize(self):
        cache = ShardedLRUCache(maxsize=2, shards=16)
        assert cache.shards == 2
        assert cache.maxsize == 2

    def test_bounded_under_churn(self):
        cache = ShardedLRUCache(maxsize=32, shards=4)
        for i in range(10_000):
            cache.put(("key", i), i)
        assert len(cache) <= 32
        stats = cache.stats()
        assert stats.evictions >= 10_000 - 32
        assert stats.entries == len(cache)

    def test_lru_order_within_shard(self):
        cache = ShardedLRUCache(maxsize=2, shards=1)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == (1,)  # refresh a
        cache.put("c", 3)  # evicts b, the least recent
        assert cache.get("b") is None
        assert cache.get("a") == (1,)
        assert cache.get("c") == (3,)

    def test_generation_invalidation_is_lazy_and_total(self):
        cache = ShardedLRUCache(maxsize=16, shards=4)
        for i in range(8):
            cache.put(i, i * 10)
        generation = cache.invalidate_all()
        assert generation == cache.generation
        for i in range(8):
            assert cache.get(i) is None  # stale entries dropped on lookup
        stats = cache.stats()
        assert stats.invalidations == 8
        # a fresh store after the bump is servable again
        cache.put("new", 99)
        assert cache.get("new") == (99,)

    def test_put_with_stale_generation_is_unservable(self):
        """The stale-store race: a worker that captured the generation
        before an invalidation must never have its store served."""
        cache = ShardedLRUCache(maxsize=8, shards=2)
        captured = cache.generation
        cache.invalidate_all()  # the index mutated while the worker evaluated
        cache.put("key", "pre-mutation answer", generation=captured)
        assert cache.get("key") is None
        # a store stamped with the live generation is served normally
        cache.put("key", "fresh", generation=cache.generation)
        assert cache.get("key") == ("fresh",)

    def test_concurrent_readers_and_writers(self):
        cache = ShardedLRUCache(maxsize=128, shards=8)
        errors = []

        def worker(worker_id: int) -> None:
            try:
                for i in range(300):
                    key = (worker_id % 4, i % 40)
                    cache.put(key, key)
                    boxed = cache.get(key)
                    if boxed is not None and boxed[0] != key:
                        errors.append((key, boxed))
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(n,)) for n in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 128


class TestFlixCacheIntegration:
    def test_warm_equals_cold(self, cached_flix, linked_collection):
        start = linked_collection.document_root("a.xml")
        request = QueryRequest.descendants(start, tag="p")
        cold = cached_flix.query(request)
        warm = cached_flix.query(request)
        assert not cold.from_cache and warm.from_cache
        assert [r.node for r in warm.results] == [
            r.node for r in cold.results
        ]
        assert warm.stats.results_returned == cold.stats.results_returned

    def test_scalar_hot_pair_caching(self, cached_flix, linked_collection):
        a = linked_collection.document_root("a.xml")
        b = linked_collection.document_root("b.xml")
        first = cached_flix.query(QueryRequest.test(a, b))
        again = cached_flix.query(QueryRequest.test(a, b))
        assert again.from_cache
        assert again.value == first.value
        # negative probes cache too (the 1-tuple boxing at work)
        none1 = cached_flix.query(QueryRequest.test(b, a))
        none2 = cached_flix.query(QueryRequest.test(b, a))
        assert none1.value is None and none2.value is None
        assert none2.from_cache

    def test_add_document_invalidates(self, cached_flix, linked_collection):
        start = linked_collection.document_root("a.xml")
        request = QueryRequest.descendants(start, tag="p")
        before = cached_flix.query(request)
        assert cached_flix.query(request).from_cache
        cached_flix.add_document(
            XmlDocument.from_text("c.xml", "<doc><p>gamma</p></doc>")
        )
        after = cached_flix.query(request)
        assert not after.from_cache  # generation bumped, entry unservable
        assert {r.node for r in after.results} == {
            r.node for r in before.results
        }

    def test_rebuild_starts_cold(self, cached_flix, linked_collection):
        start = linked_collection.document_root("a.xml")
        request = QueryRequest.descendants(start, tag="p")
        cached_flix.query(request)
        assert cached_flix.query(request).from_cache
        rebuilt = Flix.build(cached_flix.collection, cached_flix.config)
        assert rebuilt.cache is not None  # config.cache carries over
        assert rebuilt.cache_hits == 0 and rebuilt.cache_misses == 0
        assert not rebuilt.query(request).from_cache

    def test_repair_roundtrip_serves_fresh_cache(
        self, cached_flix, linked_collection, tmp_path
    ):
        """A repaired/reloaded index starts with an empty cache: entries
        never survive persistence."""
        from repro.core.framework import Flix

        start = linked_collection.document_root("a.xml")
        request = QueryRequest.descendants(start, tag="p")
        expected = cached_flix.query(request)
        cached_flix.save(tmp_path / "idx")
        assert Flix.repair(linked_collection, tmp_path / "idx") == []
        loaded = Flix.load(linked_collection, tmp_path / "idx")
        response = loaded.query(request)
        assert not response.from_cache
        assert [r.node for r in response.results] == [
            r.node for r in expected.results
        ]

    def test_limited_query_served_by_slicing(self, figure1_flix,
                                             figure1_collection):
        start = figure1_collection.document_root("d05.xml")
        full = figure1_flix.query(QueryRequest.descendants(start))
        hits_before = figure1_flix.cache_hits
        limited = figure1_flix.query(
            QueryRequest.descendants(start).with_limit(3)
        )
        assert figure1_flix.cache_hits == hits_before + 1
        assert limited.from_cache
        assert [r.node for r in limited.results] == [
            r.node for r in full.results[:3]
        ]

    def test_concurrent_results_match_serial(self, figure1_flix,
                                             figure1_collection):
        """Plain threads sharing one cached ``Flix`` get exactly the
        serial answers, in the serial order, hit or miss."""
        roots = [
            figure1_collection.document_root(name)
            for name in sorted(figure1_collection.documents)[:8]
        ]
        requests = [QueryRequest.descendants(root) for root in roots] * 3
        serial = [
            [r.node for r in figure1_flix.query(request).results]
            for request in requests
        ]
        figure1_flix.invalidate_caches()
        answers = {}
        barrier = threading.Barrier(4)

        def client(index: int) -> None:
            barrier.wait()
            answers[index] = [
                [r.node for r in figure1_flix.query(request).results]
                for request in requests
            ]

        threads = [
            threading.Thread(target=client, args=(n,)) for n in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # force interleaving mid-query
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert answers == {n: serial for n in range(4)}

    def test_cache_hits_are_exported(self, cached_flix, linked_collection):
        start = linked_collection.document_root("a.xml")
        request = QueryRequest.descendants(start, tag="p")
        for _ in range(4):
            cached_flix.query(request)
        from repro.obs import render_json  # structured export

        exported = render_json(cached_flix.obs.registry)
        assert "flix_cache_hits_total" in exported
        assert "flix_cache_misses_total" in exported
        assert cached_flix.cache_stats().hits == 3

    def test_concurrent_reads_are_deterministic(self, figure1_flix,
                                                figure1_collection):
        """N threads issuing the same query set must all see identical
        sorted results, hit or miss."""
        roots = [
            figure1_collection.document_root(name)
            for name in sorted(figure1_collection.documents)[:6]
        ]
        requests = [QueryRequest.descendants(root) for root in roots]
        expected = [
            sorted(r.node for r in figure1_flix.query(req).results)
            for req in requests
        ]
        figure1_flix.invalidate_caches()
        mismatches = []
        barrier = threading.Barrier(6)

        def worker() -> None:
            barrier.wait()
            for index, request in enumerate(requests):
                got = sorted(
                    r.node for r in figure1_flix.query(request).results
                )
                if got != expected[index]:
                    mismatches.append((index, got))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not mismatches

    def test_budget_bearing_requests_bypass_storage(
        self, cached_flix, linked_collection
    ):
        from repro.core.pee import QueryBudget

        start = linked_collection.document_root("a.xml")
        budgeted = QueryRequest.descendants(start, tag="p").with_budget(
            QueryBudget(max_queue_pops=1000)
        )
        cached_flix.query(budgeted)
        response = cached_flix.query(budgeted)
        assert not response.from_cache  # never stored, never replayed

    def test_mutation_during_evaluation_is_never_cached(
        self, cached_flix, linked_collection
    ):
        """``add_document`` racing a cache miss: the answer computed
        against the pre-mutation index must not be stored as fresh after
        the invalidation (the generation is captured at miss time)."""
        start = linked_collection.document_root("a.xml")
        request = QueryRequest.descendants(start, tag="p")
        inner = cached_flix.pee

        class RacingEvaluator:
            """Evaluates against the old index, then mutates it before
            the caller gets to store the result — the reviewed race, made
            deterministic."""

            def __getattr__(self, name):
                return getattr(inner, name)

            def find_descendants(self, *args, **kwargs):
                stream = inner.find_descendants(*args, **kwargs)
                results = list(stream)
                cached_flix.add_document(
                    XmlDocument.from_text(
                        "c.xml", "<doc><p>gamma</p></doc>"
                    )
                )
                return QueryStream((r for r in results), stream.stats)

        cached_flix.pee = RacingEvaluator()
        assert not cached_flix.query(request).from_cache
        after = cached_flix.query(request)
        assert not after.from_cache  # the racy store must read as stale


class TestResultCache:
    def test_cache_disabled_by_default(self, figure1_collection):
        flix = Flix.build(figure1_collection, FlixConfig.naive())
        start = figure1_collection.document_root("d01.xml")
        list(flix.query_stream(QueryRequest.descendants(start)))
        list(flix.query_stream(QueryRequest.descendants(start)))
        assert flix.cache_hits == 0

    def test_cache_hit_on_repeat(self, figure1_collection):
        flix = Flix.build(figure1_collection, FlixConfig.naive())
        flix.configure_cache(CacheConfig(maxsize=128, shards=1))
        start = figure1_collection.document_root("d01.xml")
        first = list(flix.query_stream(QueryRequest.descendants(start, tag="item")))
        second = list(flix.query_stream(QueryRequest.descendants(start, tag="item")))
        assert flix.cache_hits == 1
        assert first == second

    def test_list_path_request_is_cacheable(self, figure1_collection):
        """A path request given its steps as a list is the tuple-form
        request: it hashes, and answers alike on a miss and on a hit."""
        config = FlixConfig.naive().with_cache(CacheConfig(maxsize=8, shards=1))
        flix = Flix.build(figure1_collection, config)
        root = figure1_collection.document_root("d01.xml")
        listed = QueryRequest(kind="path", source=root, path=["item"])
        assert listed == QueryRequest(kind="path", source=root, path=("item",))
        assert hash(listed) == hash(QueryRequest.find_path(root, ["item"]))
        miss = flix.query(listed)
        hit = flix.query(listed)
        assert not miss.from_cache and hit.from_cache
        assert miss.results and hit.results == miss.results

    def test_cached_results_equal_fresh(self, figure1_collection):
        plain = Flix.build(figure1_collection, FlixConfig.hybrid(60))
        cached = Flix.build(figure1_collection, FlixConfig.hybrid(60))
        cached.configure_cache(CacheConfig(maxsize=128, shards=1))
        start = figure1_collection.document_root("d05.xml")
        for _ in range(3):
            assert list(cached.query_stream(QueryRequest.descendants(start))) == list(
                plain.query_stream(QueryRequest.descendants(start))
            )

    def test_limited_query_served_from_cached_superset(self, figure1_collection):
        flix = Flix.build(figure1_collection, FlixConfig.naive())
        flix.configure_cache(CacheConfig(maxsize=128, shards=1))
        start = figure1_collection.document_root("d01.xml")
        full = list(flix.query_stream(QueryRequest.descendants(start)))
        limited = list(flix.query_stream(QueryRequest.descendants(start, limit=3)))
        assert limited == full[:3]
        assert flix.cache_hits == 1

    def test_limited_queries_not_cached_as_full(self, figure1_collection):
        flix = Flix.build(figure1_collection, FlixConfig.naive())
        flix.configure_cache(CacheConfig(maxsize=128, shards=1))
        start = figure1_collection.document_root("d01.xml")
        list(flix.query_stream(QueryRequest.descendants(start, limit=2)))
        full = list(flix.query_stream(QueryRequest.descendants(start)))
        assert len(full) > 2

    def test_lru_eviction(self, figure1_collection):
        flix = Flix.build(figure1_collection, FlixConfig.naive())
        flix.configure_cache(CacheConfig(maxsize=2, shards=1))
        roots = [
            figure1_collection.document_root(name)
            for name in ("d01.xml", "d02.xml", "d03.xml")
        ]
        for root in roots:
            list(flix.query_stream(QueryRequest.descendants(root)))
        list(flix.query_stream(QueryRequest.descendants(roots[0])))  # evicted -> miss
        assert flix.cache_hits == 0
        assert flix.cache_misses >= 4

    def test_invalid_maxsize(self, figure1_collection):
        flix = Flix.build(figure1_collection, FlixConfig.naive())
        with pytest.raises(ValueError):
            flix.configure_cache(CacheConfig(maxsize=0, shards=1))

    def test_removing_the_cache(self, figure1_collection):
        flix = Flix.build(figure1_collection, FlixConfig.naive())
        flix.configure_cache(CacheConfig(maxsize=128, shards=1))
        start = figure1_collection.document_root("d01.xml")
        list(flix.query_stream(QueryRequest.descendants(start)))
        flix.configure_cache(None)
        hits_before = flix.cache_hits
        list(flix.query_stream(QueryRequest.descendants(start)))
        assert flix.cache_hits == hits_before

    def test_add_document_invalidates_cached_results(self):
        """Cached results describe the pre-addition reachability; serving
        them after ``add_document`` would hide the new document."""
        from repro.collection.builder import build_collection
        from repro.collection.document import XmlDocument

        collection = build_collection(
            [
                XmlDocument.from_text(
                    "a.xml", '<doc><l xlink:href="b.xml"/><p>alpha</p></doc>'
                ),
                XmlDocument.from_text("b.xml", "<doc><p>beta</p></doc>"),
            ]
        )
        flix = Flix.build(collection, FlixConfig.naive())
        flix.configure_cache(CacheConfig(maxsize=128, shards=1))
        start = collection.document_root("a.xml")
        before = list(flix.query_stream(QueryRequest.descendants(start, tag="p")))
        list(flix.query_stream(QueryRequest.descendants(start, tag="p")))
        assert flix.cache_hits == 1

        flix.add_document(
            XmlDocument.from_text(
                "c.xml", '<doc><p>gamma</p></doc>'
            )
        )
        # the cache was cleared: same query is a miss, not a stale hit
        after = list(flix.query_stream(QueryRequest.descendants(start, tag="p")))
        assert flix.cache_hits == 1
        assert flix.cache_misses >= 2
        assert {r.node for r in after} == {r.node for r in before}

        # a document the cached result could never contain
        flix.add_document(
            XmlDocument.from_text(
                "d.xml", '<doc><l xlink:href="a.xml"/><p>delta</p></doc>'
            )
        )
        start_d = collection.document_root("d.xml")
        texts = {
            collection.text(r.node)
            for r in flix.query_stream(QueryRequest.descendants(start_d, tag="p"))
        }
        assert texts == {"alpha", "beta", "delta"}

    def test_rebuild_starts_with_cold_cache(self, figure1_collection):
        flix = Flix.build(figure1_collection, FlixConfig.hybrid(60))
        flix.configure_cache(CacheConfig(maxsize=128, shards=1))
        start = figure1_collection.document_root("d05.xml")
        original = list(flix.query_stream(QueryRequest.descendants(start)))
        list(flix.query_stream(QueryRequest.descendants(start)))
        assert flix.cache_hits == 1

        rebuilt = Flix.build(flix.collection, flix.config)
        assert rebuilt is not flix
        assert rebuilt.cache_hits == 0 and rebuilt.cache_misses == 0
        fresh = list(rebuilt.query_stream(QueryRequest.descendants(start)))
        assert rebuilt.cache_hits == 0  # caching is opt-in per instance
        assert [r.node for r in fresh] == [r.node for r in original]


@pytest.fixture(scope="module")
def dblp40():
    return generate_dblp(DblpSpec(documents=40))


@pytest.mark.parametrize("cache", ["off", "miss", "hit"])
@pytest.mark.parametrize("kind", ["children", "path"])
def test_limit_cuts_list_kinds_when_evaluated_and_on_a_hit(
    dblp40, kind, cache
):
    """``limit`` cuts every list-valued answer alike, evaluated (cache
    off, or a miss) or replayed (a hit)."""
    reference = Flix.build(dblp40, FlixConfig.maximal_ppo())
    config = FlixConfig.maximal_ppo()
    if cache != "off":
        config = config.with_cache(CacheConfig(maxsize=64, shards=1))
    flix = Flix.build(dblp40, config)
    for name in sorted(dblp40.documents):
        root = dblp40.document_root(name)
        unlimited = (
            QueryRequest.children(root) if kind == "children"
            else QueryRequest.find_path(root, ["author"])
        )
        full = reference.query(unlimited)
        if len(full) > 2:
            break
    if cache == "hit":
        flix.query(unlimited)
    response = flix.query(unlimited.with_limit(2))
    assert response.from_cache == (cache == "hit")
    assert response.results == full.results[:2]
