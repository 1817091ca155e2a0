"""Tests for whole-index persistence (Flix.save / Flix.load)."""

import pytest

from repro.core.api import QueryRequest
from repro.core.config import FlixConfig
from repro.core.framework import Flix
from repro.core.persistence import PersistenceError
from repro.datasets.dblp import DblpSpec, generate_dblp
from repro.graph.closure import transitive_closure


@pytest.mark.parametrize(
    "config",
    [
        FlixConfig.naive(),
        FlixConfig.maximal_ppo(),
        FlixConfig.unconnected_hopi(60),
        FlixConfig.hybrid(60),
    ],
    ids=lambda c: c.name,
)
class TestSaveLoadRoundTrip:
    def test_answers_identical(self, figure1_collection, tmp_path, config):
        original = Flix.build(figure1_collection, config)
        original.save(tmp_path / "idx")
        loaded = Flix.load(figure1_collection, tmp_path / "idx")
        for name in sorted(figure1_collection.documents)[:5]:
            start = figure1_collection.document_root(name)
            assert [
                (r.node, r.distance) for r in loaded.query_stream(
                    QueryRequest.descendants(start)
                )
            ] == [
                (r.node, r.distance) for r in original.query_stream(
                    QueryRequest.descendants(start)
                )
            ]

    def test_loaded_index_passes_self_check(self, figure1_collection, tmp_path, config):
        Flix.build(figure1_collection, config).save(tmp_path / "idx")
        loaded = Flix.load(figure1_collection, tmp_path / "idx")
        loaded.self_check(samples=10, seed=4)

    def test_metadata_restored(self, figure1_collection, tmp_path, config):
        original = Flix.build(figure1_collection, config)
        original.save(tmp_path / "idx")
        loaded = Flix.load(figure1_collection, tmp_path / "idx")
        assert loaded.config == original.config
        assert len(loaded.meta_documents) == len(original.meta_documents)
        assert loaded.meta_of == original.meta_of
        assert (
            loaded.report.residual_link_count
            == original.report.residual_link_count
        )


class TestSaveLoadBehaviour:
    def test_loaded_index_supports_incremental_growth(self, tmp_path):
        from repro.collection.document import XmlDocument

        collection = generate_dblp(DblpSpec(documents=40))
        Flix.build(collection, FlixConfig.naive()).save(tmp_path / "idx")
        loaded = Flix.load(collection, tmp_path / "idx")
        loaded.add_document(
            XmlDocument.from_text(
                "extra.xml",
                '<article key="x"><title>New</title>'
                '<cite xlink:href="rec000000.xml"/></article>',
            )
        )
        start = collection.document_root("extra.xml")
        results = list(loaded.query_stream(QueryRequest.descendants(start)))
        assert collection.document_root("rec000000.xml") in {
            r.node for r in results
        }

    def test_fingerprint_mismatch_rejected(self, figure1_collection, tmp_path):
        Flix.build(figure1_collection, FlixConfig.naive()).save(tmp_path / "idx")
        other = generate_dblp(DblpSpec(documents=10))
        with pytest.raises(PersistenceError):
            Flix.load(other, tmp_path / "idx")

    def test_missing_manifest_rejected(self, figure1_collection, tmp_path):
        with pytest.raises(PersistenceError):
            Flix.load(figure1_collection, tmp_path / "empty")

    def test_monolithic_round_trip(self, figure1_collection, tmp_path):
        original = Flix.build(figure1_collection, FlixConfig.monolithic("hopi"))
        original.save(tmp_path / "mono")
        loaded = Flix.load(figure1_collection, tmp_path / "mono")
        oracle = transitive_closure(figure1_collection.graph)
        start = figure1_collection.document_root("d05.xml")
        got = {r.node for r in loaded.query_stream(QueryRequest.descendants(start))}
        assert got == set(oracle.descendants(start)) - {start}

    def test_dblp_round_trip_heavy(self, tmp_path):
        collection = generate_dblp(DblpSpec(documents=80))
        original = Flix.build(collection, FlixConfig.hybrid(200))
        original.save(tmp_path / "idx")
        loaded = Flix.load(collection, tmp_path / "idx")
        from repro.datasets.dblp import find_aries

        aries = find_aries(collection)
        request = QueryRequest.descendants(aries, tag="article")
        assert [r.node for r in loaded.query_stream(request)] == [
            r.node for r in original.query_stream(request)
        ]
