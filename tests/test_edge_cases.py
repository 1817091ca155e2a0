"""Edge cases and failure injection across module boundaries."""

import pytest

from repro import Flix, FlixConfig, QueryRequest, XmlDocument, build_collection
from repro.collection.stats import collect_statistics


class TestEmptyAndMinimalCollections:
    def test_empty_collection_builds(self):
        collection = build_collection([])
        flix = Flix.build(collection, FlixConfig.naive())
        assert flix.size_bytes() >= 0
        assert flix.meta_documents == []

    def test_empty_collection_query_rejected(self):
        collection = build_collection([])
        flix = Flix.build(collection, FlixConfig.naive())
        with pytest.raises(KeyError):
            list(flix.query_stream(QueryRequest.descendants(0)))

    def test_single_element_document(self):
        collection = build_collection([XmlDocument.from_text("a.xml", "<a/>")])
        flix = Flix.build(collection, FlixConfig.naive())
        root = collection.document_root("a.xml")
        assert list(flix.query_stream(QueryRequest.descendants(root))) == []
        assert list(flix.query_stream(
            QueryRequest.descendants(root, include_self=True)
        ))[0].node == root
        assert flix.query(QueryRequest.test(root, root)).value == 0

    def test_empty_collection_statistics(self):
        stats = collect_statistics(build_collection([]))
        assert stats.element_count == 0
        assert stats.link_density == 0.0
        assert stats.intra_link_fraction is None

    def test_self_referencing_document(self):
        collection = build_collection(
            [XmlDocument.from_text("a.xml", '<a><l xlink:href="a.xml"/></a>')]
        )
        # the link targets the document's own root: a cycle root <-> link
        flix = Flix.build(collection, FlixConfig.naive())
        root = collection.document_root("a.xml")
        results = {r.node for r in flix.query_stream(QueryRequest.descendants(root))}
        assert len(results) == 1  # the <l> element


class TestIntraLinkFraction:
    def test_all_intra(self):
        collection = build_collection(
            [XmlDocument.from_text("a.xml", '<a><b id="x"/><c idref="x"/></a>')]
        )
        stats = collect_statistics(collection)
        assert stats.intra_link_fraction == 1.0

    def test_all_inter(self):
        collection = build_collection(
            [
                XmlDocument.from_text("a.xml", '<a><l xlink:href="b.xml"/></a>'),
                XmlDocument.from_text("b.xml", "<b/>"),
            ]
        )
        stats = collect_statistics(collection)
        assert stats.intra_link_fraction == 0.0

    def test_recommend_inex_profile(self):
        config = FlixConfig.recommend(
            link_density=0.06,
            intra_document_links=60,
            mean_document_size=140.0,
            intra_link_fraction=0.95,
        )
        assert config.mdb_strategy == "naive"

    def test_recommend_dense_inter_profile_unchanged(self):
        config = FlixConfig.recommend(
            link_density=0.06,
            intra_document_links=0,
            mean_document_size=140.0,
            intra_link_fraction=0.0,
        )
        assert config.mdb_strategy == "unconnected_hopi"


class TestStorageFaultPropagation:
    def test_index_build_fault_propagates_cleanly(self, monkeypatch):
        from repro.indexes.ppo import PpoIndex

        def explode(graph, tags):
            raise IOError("disk on fire")

        monkeypatch.setattr(PpoIndex, "build", explode)
        collection = build_collection([XmlDocument.from_text("a.xml", "<a><b/></a>")])
        with pytest.raises(IOError):
            Flix.build(collection, FlixConfig.naive())


class TestDeepDocuments:
    def test_thousand_level_nesting(self):
        depth = 1000
        text = "".join(f"<e{i}>" for i in range(depth)) + "".join(
            f"</e{i}>" for i in reversed(range(depth))
        )
        collection = build_collection([XmlDocument.from_text("deep.xml", text)])
        flix = Flix.build(collection, FlixConfig.naive())
        root = collection.document_root("deep.xml")
        results = list(flix.query_stream(QueryRequest.descendants(root)))
        assert len(results) == depth - 1
        assert max(r.distance for r in results) == depth - 1

    def test_wide_document(self):
        text = "<root>" + "<leaf/>" * 2000 + "</root>"
        collection = build_collection([XmlDocument.from_text("wide.xml", text)])
        flix = Flix.build(collection, FlixConfig.naive())
        root = collection.document_root("wide.xml")
        assert len(flix.query(QueryRequest.descendants(root, tag="leaf"))) == 2000
