"""Tests for the INEX-style collection generator."""

import pytest

from repro.collection.stats import collect_statistics
from repro.core.api import QueryRequest
from repro.core.config import FlixConfig
from repro.core.framework import Flix
from repro.datasets.inex import InexSpec, generate_inex
from repro.graph.closure import transitive_closure


@pytest.fixture(scope="module")
def inex_collection():
    return generate_inex(InexSpec(articles=8, mean_article_size=150))


class TestShape:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            InexSpec(articles=0)
        with pytest.raises(ValueError):
            InexSpec(cross_citation_rate=1.5)

    def test_large_documents(self, inex_collection):
        stats = collect_statistics(inex_collection)
        assert stats.mean_document_size > 80

    def test_deep_structure(self, inex_collection):
        stats = collect_statistics(inex_collection)
        assert stats.max_depth >= 4

    def test_mostly_intra_document_links(self, inex_collection):
        stats = collect_statistics(inex_collection)
        assert stats.intra_document_links > stats.inter_document_links
        assert stats.intra_document_links >= 8

    def test_inex_schema_tags(self, inex_collection):
        tags = set(inex_collection.tags())
        assert {"article", "fm", "bdy", "bm", "sec", "p", "bib", "bb"} <= tags

    def test_citations_resolve(self, inex_collection):
        assert inex_collection.unresolved_links == []

    def test_deterministic(self):
        spec = InexSpec(articles=4)
        a = generate_inex(spec)
        b = generate_inex(spec)
        assert a.node_count == b.node_count
        assert sorted(a.link_edges) == sorted(b.link_edges)


class TestPaperRoleOfInex:
    def test_recommendation_prefers_naive(self, inex_collection):
        """Section 4.3: INEX 'would be a good candidate' for Naive."""
        stats = collect_statistics(inex_collection)
        config = FlixConfig.recommend(
            stats.link_density,
            stats.intra_document_links,
            stats.mean_document_size,
            intra_link_fraction=stats.intra_link_fraction,
        )
        assert config.mdb_strategy == "naive"

    def test_naive_config_answers_exactly(self, inex_collection):
        flix = Flix.build(inex_collection, FlixConfig.naive())
        oracle = transitive_closure(inex_collection.graph)
        for name in list(inex_collection.documents)[:3]:
            start = inex_collection.document_root(name)
            got = {
                r.node
                for r in flix.query_stream(QueryRequest.descendants(start, tag="p"))
            }
            expected = {
                v
                for v in oracle.descendants(start)
                if inex_collection.tag(v) == "p"
            }
            assert got == expected

    def test_queries_rarely_cross_documents(self, inex_collection):
        """'queries usually do not cross document boundaries'."""
        flix = Flix.build(inex_collection, FlixConfig.naive())
        name = next(iter(inex_collection.documents))
        start = inex_collection.document_root(name)
        stats = flix.query(QueryRequest.descendants(start, tag="p")).stats
        assert stats.meta_document_visits <= 3