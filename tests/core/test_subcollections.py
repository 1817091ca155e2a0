"""Tests for automatic subcollection detection and per-part configuration."""

import pytest

from repro.collection.builder import build_collection
from repro.collection.document import XmlDocument
from repro.core.api import QueryRequest
from repro.core.config import FlixConfig
from repro.core.framework import Flix
from repro.core.subcollections import identify_subcollections
from repro.graph.closure import transitive_closure
from repro.indexes.packed import PackedIndex
from repro.indexes.registry import available_strategies


def mixed_collection():
    """Two obviously different families: flat records vs deep linked docs."""
    documents = []
    for i in range(6):
        documents.append(
            XmlDocument.from_text(
                f"rec{i}.xml",
                f"<record><field>a{i}</field><field>b{i}</field></record>",
            )
        )
    for i in range(4):
        target = f"page{(i + 1) % 4}.xml"
        documents.append(
            XmlDocument.from_text(
                f"page{i}.xml",
                f'<page><section><para id="p{i}">text</para>'
                f'<ref idref="p{i}"/></section>'
                f'<nav><link xlink:href="{target}"/></nav></page>',
            )
        )
    return build_collection(documents)


class TestIdentify:
    def test_families_separated(self):
        collection = mixed_collection()
        subcollections = identify_subcollections(collection)
        groups = {frozenset(s.documents) for s in subcollections}
        record_docs = frozenset(f"rec{i}.xml" for i in range(6))
        page_docs = frozenset(f"page{i}.xml" for i in range(4))
        assert record_docs in groups
        assert page_docs in groups

    def test_disjoint_cover(self):
        collection = mixed_collection()
        subcollections = identify_subcollections(collection)
        seen = []
        for subcollection in subcollections:
            seen.extend(subcollection.documents)
        assert sorted(seen) == sorted(collection.documents)

    def test_configs_match_shape(self):
        collection = mixed_collection()
        by_doc = {
            frozenset(s.documents): s for s in identify_subcollections(collection)
        }
        records = by_doc[frozenset(f"rec{i}.xml" for i in range(6))]
        pages = by_doc[frozenset(f"page{i}.xml" for i in range(4))]
        # link-free flat records -> a PPO-friendly configuration
        assert records.config.mdb_strategy == "maximal_ppo"
        # linked pages -> a configuration that can index links
        assert pages.config.mdb_strategy in ("unconnected_hopi", "hybrid", "naive")
        assert any(s != "ppo" for s in pages.config.allowed_strategies)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            identify_subcollections(mixed_collection(), similarity_threshold=0.0)

    def test_threshold_one_gives_near_singletons(self):
        collection = mixed_collection()
        strict = identify_subcollections(collection, similarity_threshold=1.0)
        loose = identify_subcollections(collection, similarity_threshold=0.3)
        assert len(strict) >= len(loose)

    def test_stats_and_summary(self):
        for subcollection in identify_subcollections(mixed_collection()):
            assert subcollection.stats.element_count > 0
            assert "documents" in subcollection.summary()

    def test_homogeneous_dblp_collapses(self, dblp_collection):
        subcollections = identify_subcollections(dblp_collection)
        # two record kinds (article / inproceedings) -> very few clusters
        assert len(subcollections) <= 4


class TestBuildAutoPartitioned:
    def test_answers_match_oracle(self):
        collection = mixed_collection()
        flix = Flix.build(collection, FlixConfig.auto_subcollections())
        assert len(identify_subcollections(collection)) >= 2
        oracle = transitive_closure(collection.graph)
        for name in collection.documents:
            start = collection.document_root(name)
            got = {r.node for r in flix.query_stream(QueryRequest.descendants(start))}
            assert got == set(oracle.descendants(start)) - {start}

    def test_mixed_strategies_in_one_index(self):
        collection = mixed_collection()
        flix = Flix.build(collection, FlixConfig.auto_subcollections())
        strategies = {m.strategy for m in flix.meta_documents}
        assert "ppo" in strategies  # the record family
        assert len(strategies) >= 1
        # this build path serves the packed layout like every other
        assert strategies <= set(available_strategies())
        assert all(isinstance(m.index, PackedIndex) for m in flix.meta_documents)

    def test_incremental_growth_still_works(self):
        collection = mixed_collection()
        flix = Flix.build(collection, FlixConfig.auto_subcollections())
        flix.add_document(
            XmlDocument.from_text(
                "extra.xml", '<page><nav><link xlink:href="page0.xml"/></nav></page>'
            )
        )
        start = collection.document_root("extra.xml")
        results = {r.node for r in flix.query_stream(QueryRequest.descendants(start))}
        assert collection.document_root("page0.xml") in results

    def test_on_figure1(self, figure1_collection):
        flix = Flix.build(
            figure1_collection, FlixConfig.auto_subcollections()
        )
        oracle = transitive_closure(figure1_collection.graph)
        start = figure1_collection.document_root("d05.xml")
        got = {r.node for r in flix.query_stream(QueryRequest.descendants(start))}
        assert got == set(oracle.descendants(start)) - {start}
