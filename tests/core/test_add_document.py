"""Tests for incremental document addition (Flix.add_document)."""

import pytest

from repro.collection.builder import build_collection, register_document
from repro.collection.document import XmlDocument
from repro.core.api import QueryRequest
from repro.core.config import CacheConfig, FlixConfig
from repro.core.framework import Flix
from repro.graph.closure import transitive_closure


def doc(name, text):
    return XmlDocument.from_text(name, text)


@pytest.fixture()
def base_collection():
    return build_collection(
        [
            doc("a.xml", '<doc><l xlink:href="b.xml"/><p>alpha</p></doc>'),
            doc("b.xml", "<doc><p>beta</p></doc>"),
            doc(
                "c.xml",
                '<doc><l xlink:href="future.xml"/><p>gamma</p></doc>',
            ),
        ]
    )


class TestRegisterDocument:
    def test_new_nodes_appended(self, base_collection):
        before = base_collection.node_count
        register_document(base_collection, doc("d.xml", "<doc><p>delta</p></doc>"))
        assert base_collection.node_count == before + 2
        assert "d.xml" in base_collection.documents

    def test_new_document_links_resolved(self, base_collection):
        edges = register_document(
            base_collection,
            doc("d.xml", '<doc><l xlink:href="a.xml"/></doc>'),
        )
        assert len(edges) == 1
        (u, v) = edges[0]
        assert v == base_collection.document_root("a.xml")

    def test_previously_dangling_link_resolves(self, base_collection):
        assert len(base_collection.unresolved_links) == 1  # c -> future.xml
        edges = register_document(
            base_collection, doc("future.xml", "<doc><p>future</p></doc>")
        )
        assert base_collection.unresolved_links == []
        targets = {v for _u, v in edges}
        assert base_collection.document_root("future.xml") in targets

    def test_duplicate_name_rejected(self, base_collection):
        with pytest.raises(ValueError):
            register_document(base_collection, doc("a.xml", "<doc/>"))


class TestRegisterDocumentRetryLoop:
    def test_own_failed_links_not_retried_in_same_call(
        self, base_collection, monkeypatch
    ):
        """A link that failed to resolve in this call must not be looked
        up again by the same call's dangling-link retry loop."""
        import repro.collection.builder as builder_module

        original = builder_module._resolve
        attempts = []

        def counting_resolve(collection, document, link):
            attempts.append(link)
            return original(collection, document, link)

        monkeypatch.setattr(builder_module, "_resolve", counting_resolve)
        new = doc(
            "d.xml",
            '<doc><l xlink:href="gone1.xml"/><l xlink:href="gone2.xml"/>'
            '<l xlink:href="gone3.xml"/></doc>',
        )
        register_document(base_collection, new)
        own_failed = [
            link for link in attempts
            if link.target_document in {"gone1.xml", "gone2.xml", "gone3.xml"}
        ]
        # each dangling link of the new document: exactly one resolution
        assert len(own_failed) == 3
        assert len({id(link) for link in own_failed}) == 3
        # and they still queue up for future documents to satisfy
        assert len(base_collection.unresolved_links) == 4  # 1 old + 3 new

    def test_failed_links_resolve_on_later_addition(self, base_collection):
        register_document(
            base_collection, doc("d.xml", '<doc><l xlink:href="gone.xml"/></doc>')
        )
        edges = register_document(
            base_collection, doc("gone.xml", "<doc/>")
        )
        targets = {v for _u, v in edges}
        assert base_collection.document_root("gone.xml") in targets


class TestAddDocumentRollback:
    def test_failed_index_build_rolls_back_collection(
        self, base_collection, break_build
    ):
        """``add_document`` must be atomic: an index-build failure leaves
        no trace in the collection graph or the dangling-link list."""
        from repro.indexes.ppo import PpoIndex

        flix = Flix.build(base_collection, FlixConfig.naive())
        docs_before = set(base_collection.documents)
        nodes_before = base_collection.node_count
        edges_before = base_collection.graph.edge_count
        unresolved_before = list(base_collection.unresolved_links)
        fingerprint_before = flix.index_fingerprint()

        break_build(PpoIndex, first=1)
        with pytest.raises(RuntimeError, match="injected ppo build failure"):
            flix.add_document(
                # future.xml also satisfies c.xml's dangling link, so the
                # rollback must re-dangle it too
                doc("future.xml", '<doc><l xlink:href="a.xml"/></doc>')
            )
        assert set(base_collection.documents) == docs_before
        assert base_collection.node_count == nodes_before
        assert base_collection.graph.edge_count == edges_before
        assert base_collection.unresolved_links == unresolved_before
        assert flix.index_fingerprint() == fingerprint_before
        assert flix.layout_generation == 0

        # the instance stays fully usable once the fault clears
        flix.add_document(doc("future.xml", "<doc><p>future</p></doc>"))
        assert base_collection.unresolved_links == []
        flix.self_check()


class TestFlixAddDocument:
    def test_query_sees_new_document(self, base_collection):
        flix = Flix.build(base_collection, FlixConfig.naive())
        flix.add_document(
            doc("d.xml", '<doc><l xlink:href="a.xml"/><p>delta</p></doc>')
        )
        start = base_collection.document_root("d.xml")
        texts = {
            base_collection.text(r.node)
            for r in flix.query_stream(QueryRequest.descendants(start, tag="p"))
        }
        assert texts == {"alpha", "beta", "delta"}

    def test_incremental_matches_full_rebuild(self, base_collection):
        flix = Flix.build(base_collection, FlixConfig.naive())
        new_doc = doc(
            "future.xml",
            '<doc><l xlink:href="b.xml"/><p>future</p></doc>',
        )
        flix.add_document(new_doc)
        oracle = transitive_closure(base_collection.graph)
        for name in base_collection.documents:
            start = base_collection.document_root(name)
            got = {r.node for r in flix.query_stream(QueryRequest.descendants(start))}
            assert got == set(oracle.descendants(start)) - {start}

    def test_old_documents_can_reach_new_one(self, base_collection):
        """c.xml's dangling link resolves on addition; queries follow it."""
        flix = Flix.build(base_collection, FlixConfig.naive())
        flix.add_document(doc("future.xml", "<doc><p>future</p></doc>"))
        start = base_collection.document_root("c.xml")
        texts = {
            base_collection.text(r.node)
            for r in flix.query_stream(QueryRequest.descendants(start, tag="p"))
        }
        assert "future" in texts

    def test_report_extended(self, base_collection):
        flix = Flix.build(base_collection, FlixConfig.naive())
        metas_before = len(flix.report.meta_documents)
        residual_before = flix.report.residual_link_count
        flix.add_document(doc("d.xml", '<doc><l xlink:href="a.xml"/></doc>'))
        assert len(flix.report.meta_documents) == metas_before + 1
        assert flix.report.residual_link_count == residual_before + 1
        assert "incrementally" in flix.report.meta_documents[-1].rationale

    def test_ppo_only_config_leaves_intra_links_residual(self, base_collection):
        flix = Flix.build(base_collection, FlixConfig.maximal_ppo())
        meta = flix.add_document(
            doc("d.xml", '<doc><s id="x"><p>in</p></s><r idref="x"/></doc>')
        )
        assert meta.strategy == "ppo"
        start = base_collection.document_root("d.xml")
        got = {
            r.node
            for r in flix.query_stream(QueryRequest.descendants(start, tag="p"))
        }
        assert len(got) == 1  # intra link followed at run time

    def test_cache_invalidated(self, base_collection):
        flix = Flix.build(base_collection, FlixConfig.naive())
        flix.configure_cache(CacheConfig(maxsize=128, shards=1))
        start = base_collection.document_root("a.xml")
        before = {
            r.node
            for r in flix.query_stream(QueryRequest.descendants(start, tag="p"))
        }
        flix.add_document(
            doc("d.xml", "<doc><p>delta</p></doc>")
        )
        # b.xml gained no links, a.xml unchanged -> same answer, but the
        # cache must have been dropped rather than serving stale objects
        after = {
            r.node
            for r in flix.query_stream(QueryRequest.descendants(start, tag="p"))
        }
        assert after == before
        assert flix.cache_hits == 0

    def test_monolithic_index_grows(self, base_collection):
        """A monolithic comparator is built by the one pipeline, so the
        maintenance verbs work on it like on any other index."""
        config = FlixConfig.monolithic("hopi")
        flix = Flix.build(base_collection, config)
        flix.add_document(
            doc("d.xml", '<doc><l xlink:href="a.xml"/><p>delta</p></doc>')
        )
        assert len(flix.meta_documents) == 2
        fresh = Flix.build(base_collection, config)
        assert len(fresh.meta_documents) == 1
        for name in base_collection.documents:
            request = QueryRequest.descendants(
                base_collection.document_root(name)
            )
            assert {r.node for r in flix.query(request)} == {
                r.node for r in fresh.query(request)
            }

    def test_many_additions_stay_consistent(self):
        collection = build_collection([doc("d000.xml", "<doc><p>p0</p></doc>")])
        flix = Flix.build(collection, FlixConfig.naive())
        for i in range(1, 12):
            flix.add_document(
                doc(
                    f"d{i:03d}.xml",
                    f'<doc><l xlink:href="d{i - 1:03d}.xml"/><p>p{i}</p></doc>',
                )
            )
        oracle = transitive_closure(collection.graph)
        start = collection.document_root("d011.xml")
        got = {
            r.node
            for r in flix.query_stream(QueryRequest.descendants(start, tag="p"))
        }
        expected = {
            v
            for v in oracle.descendants(start)
            if collection.tag(v) == "p"
        }
        assert got == expected
        assert len(got) == 12
