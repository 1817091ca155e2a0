"""Tests for the section 7 extensions: exact-order streaming, result
caching, and the child axis."""

import pytest

from repro.core.api import QueryRequest
from repro.core.config import CacheConfig, FlixConfig
from repro.core.framework import Flix
from repro.graph.closure import transitive_closure


@pytest.fixture(scope="module")
def flix(figure1_collection):
    return Flix.build(figure1_collection, FlixConfig.unconnected_hopi(60))


@pytest.fixture(scope="module")
def oracle(figure1_collection):
    return transitive_closure(figure1_collection.graph)


class TestExactOrder:
    def test_stream_sorted_by_reported_distance(self, flix, figure1_collection):
        for name in ("d01.xml", "d05.xml", "d08.xml"):
            start = figure1_collection.document_root(name)
            results = list(flix.query_stream(
                QueryRequest.descendants(start, exact_order=True)
            ))
            distances = [r.distance for r in results]
            assert distances == sorted(distances)

    def test_same_result_set_as_approximate(self, flix, figure1_collection):
        start = figure1_collection.document_root("d05.xml")
        exact = {
            r.node
            for r in flix.query_stream(
                QueryRequest.descendants(start, exact_order=True)
            )
        }
        approx = {r.node for r in flix.query_stream(QueryRequest.descendants(start))}
        assert exact == approx

    def test_exact_order_reduces_error_rate(self, flix, figure1_collection, oracle):
        from repro.bench.harness import order_error_rate

        start = figure1_collection.document_root("d05.xml")
        approx = list(flix.query_stream(
            QueryRequest.descendants(start, include_self=True)
        ))
        exact = list(flix.query_stream(
            QueryRequest.descendants(start, include_self=True, exact_order=True)
        ))
        assert order_error_rate(exact, oracle, start) <= order_error_rate(
            approx, oracle, start
        )

    def test_exact_order_ancestors(self, flix, figure1_collection):
        node = figure1_collection.document_nodes("d04.xml")[-1]
        results = list(flix.query_stream(
            QueryRequest.ancestors(node, exact_order=True)
        ))
        distances = [r.distance for r in results]
        assert distances == sorted(distances)

    def test_exact_order_with_threshold(self, flix, figure1_collection):
        start = figure1_collection.document_root("d01.xml")
        results = list(
            flix.query_stream(
                QueryRequest.descendants(start, max_distance=4, exact_order=True)
            )
        )
        distances = [r.distance for r in results]
        assert distances == sorted(distances)
        assert all(d <= 4 for d in distances)

    def test_non_decreasing_across_meta_document_boundaries(
        self, flix, figure1_collection
    ):
        """The guarantee that matters is *cross*-meta: distances must stay
        non-decreasing even where the stream hops residual links between
        meta documents (within one meta the local index orders for free)."""
        for name in ("d01.xml", "d05.xml", "d08.xml"):
            start = figure1_collection.document_root(name)
            results = list(flix.query_stream(
                QueryRequest.descendants(start, exact_order=True)
            ))
            metas_spanned = {flix.meta_of[r.node] for r in results}
            assert len(metas_spanned) >= 2, (
                f"query from {name} stayed inside one meta document; "
                "the test collection no longer exercises the boundary"
            )
            distances = [r.distance for r in results]
            assert distances == sorted(distances)


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

        rebuilt = flix.rebuild()
        assert rebuilt is not flix
        assert rebuilt.cache_hits == 0 and rebuilt.cache_misses == 0
        fresh = list(rebuilt.query_stream(QueryRequest.descendants(start)))
        assert rebuilt.cache_hits == 0  # caching is opt-in per instance
        assert [r.node for r in fresh] == [r.node for r in original]


class TestChildAxis:
    def test_children_are_direct_successors(self, flix, figure1_collection):
        start = figure1_collection.document_root("d01.xml")
        children = flix.query(QueryRequest.children(start)).results
        expected = sorted(figure1_collection.graph.successors(start))
        assert [c.node for c in children] == expected
        assert all(c.distance == 1 for c in children)

    def test_children_tag_filter(self, flix, figure1_collection):
        start = figure1_collection.document_root("d01.xml")
        for child in flix.query(QueryRequest.children(start, tag="item")).results:
            assert figure1_collection.tag(child.node) == "item"

    def test_link_targets_count_as_children(self, flix, figure1_collection):
        """'elements that are referenced through links [are treated]
        similarly to normal child elements' (section 1.1)."""
        link_sources = {u for u, _v in figure1_collection.link_edges}
        source = next(iter(link_sources))
        children = {c.node for c in flix.query(QueryRequest.children(source)).results}
        targets = {
            v for u, v in figure1_collection.link_edges if u == source
        }
        assert targets <= children
