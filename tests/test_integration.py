"""End-to-end integration scenarios crossing every module boundary."""

import pytest

from repro import (
    Flix,
    FlixConfig,
    QueryRequest,
    XmlDocument,
    build_collection,
    collect_statistics,
)
from repro.collection.io import load_collection, save_collection
from repro.datasets.dblp import DblpSpec, find_aries, generate_dblp
from repro.graph.closure import transitive_closure
from repro.query.engine import QueryEngine


class TestPaperPipeline:
    """The full section 6 pipeline: corpus -> build -> query -> verify."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return generate_dblp(DblpSpec(documents=200))

    @pytest.fixture(scope="class")
    def oracle(self, corpus):
        return transitive_closure(corpus.graph)

    @pytest.mark.parametrize(
        "config_name",
        ["naive", "maximal_ppo", "unconnected_hopi", "hybrid", "auto"],
    )
    def test_figure5_query_correct_under_all_configs(
        self, corpus, oracle, config_name
    ):
        configs = {
            "naive": FlixConfig.naive(),
            "maximal_ppo": FlixConfig.maximal_ppo(),
            "unconnected_hopi": FlixConfig.unconnected_hopi(100),
            "hybrid": FlixConfig.hybrid(100),
            "auto": None,
        }
        flix = Flix.build(corpus, configs[config_name])
        aries = find_aries(corpus)
        got = {
            r.node
            for r in flix.query_stream(QueryRequest.descendants(aries, tag="article"))
        }
        expected = {
            v
            for v in oracle.descendants(aries)
            if corpus.tag(v) == "article" and v != aries
        }
        assert got == expected


class TestDiskRoundTripPipeline:
    def test_generate_save_load_index_query(self, tmp_path):
        corpus = generate_dblp(DblpSpec(documents=60))
        save_collection(corpus, tmp_path / "dblp")
        loaded = load_collection(tmp_path / "dblp")
        assert loaded.link_edge_count == corpus.link_edge_count
        flix = Flix.build(loaded, FlixConfig.maximal_ppo())
        aries = find_aries(loaded)
        fresh = Flix.build(corpus, FlixConfig.maximal_ppo())
        assert {r.node for r in flix.query_stream(QueryRequest.descendants(aries))} == {
            r.node for r in fresh.query_stream(
                QueryRequest.descendants(find_aries(corpus))
            )
        }


class TestHeterogeneousScenario:
    """The paper's Figure 1 story, end to end."""

    def test_hybrid_uses_both_strategy_families(self, figure1_collection):
        flix = Flix.build(figure1_collection, FlixConfig.hybrid(120))
        strategies = {m.strategy for m in flix.meta_documents}
        assert "ppo" in strategies
        assert "hopi" in strategies

    def test_stats_drive_recommendation(self, figure1_collection):
        stats = collect_statistics(figure1_collection)
        config = FlixConfig.recommend(
            stats.link_density,
            stats.intra_document_links,
            stats.mean_document_size,
        )
        flix = Flix.build(figure1_collection, config)
        oracle = transitive_closure(figure1_collection.graph)
        start = figure1_collection.document_root("d01.xml")
        got = {r.node for r in flix.query_stream(QueryRequest.descendants(start))}
        assert got == set(oracle.descendants(start)) - {start}


class TestRelaxedQueryOverDblp:
    def test_ontology_bridges_article_and_inproceedings(self):
        corpus = generate_dblp(DblpSpec(documents=80))
        flix = Flix.build(corpus, FlixConfig.maximal_ppo())
        engine = QueryEngine(flix)
        # ~paper expands to article + inproceedings via the ontology
        matches = engine.evaluate("//~paper", top_k=30)
        tags = {corpus.tag(m.node) for m in matches}
        assert tags == {"article", "inproceedings"}

    def test_predicate_on_year(self):
        corpus = generate_dblp(DblpSpec(documents=80))
        flix = Flix.build(corpus, FlixConfig.maximal_ppo())
        engine = QueryEngine(flix)
        matches = engine.evaluate('//inproceedings[booktitle = "VLDB"]', top_k=50)
        for match in matches:
            element = corpus.element(match.node)
            assert element.find("booktitle").text == "VLDB"


class TestUnresolvedLinkResilience:
    def test_broken_links_do_not_break_indexing(self):
        documents = [
            XmlDocument.from_text(
                "a.xml",
                '<doc><l xlink:href="missing.xml"/>'
                '<m idref="ghost"/><p>text</p></doc>',
            ),
            XmlDocument.from_text("b.xml", '<doc><l xlink:href="a.xml"/></doc>'),
        ]
        collection = build_collection(documents)
        assert len(collection.unresolved_links) == 2
        flix = Flix.build(collection, FlixConfig.naive())
        start = collection.document_root("b.xml")
        results = {
            r.node
            for r in flix.query_stream(QueryRequest.descendants(start, tag="p"))
        }
        assert len(results) == 1
