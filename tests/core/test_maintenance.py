"""Incremental maintenance v2: atomic layout snapshots, remove/update/
batch growth, and online compaction (docs/MAINTENANCE.md)."""

import pytest

from repro.collection.builder import build_collection
from repro.collection.document import XmlDocument
from repro.core import ib
from repro.core.api import QueryRequest
from repro.core.config import FlixConfig
from repro.core.framework import Flix
from repro.graph.closure import transitive_closure


def doc(name, text):
    return XmlDocument.from_text(name, text)


def base_documents():
    return [
        doc("a.xml", '<doc><l xlink:href="b.xml"/><p>alpha</p></doc>'),
        doc("b.xml", "<doc><p>beta</p></doc>"),
        doc("c.xml", '<doc><l xlink:href="b.xml"/><p>gamma</p></doc>'),
    ]


@pytest.fixture()
def flix():
    return Flix.build(build_collection(base_documents()), FlixConfig.naive())


def descendant_nodes(flix, start):
    return {r.node for r in flix.query_stream(QueryRequest.descendants(start))}


def oracle_descendants(collection, start):
    oracle = transitive_closure(collection.graph)
    return set(oracle.descendants(start)) - {start}


class TestLayoutSnapshots:
    def test_generation_bumps_per_verb(self, flix):
        assert flix.layout_generation == 0
        flix.add_document(doc("d.xml", "<doc><p>delta</p></doc>"))
        assert flix.layout_generation == 1
        flix.remove_document("d.xml")
        assert flix.layout_generation == 2
        flix.add_documents(
            [doc("e.xml", "<doc/>"), doc("f.xml", "<doc/>")]
        )
        assert flix.layout_generation == 3  # one swap for the whole batch

    def test_layout_snapshot_is_immutable_view(self, flix):
        pinned = flix.layout
        flix.add_document(doc("d.xml", "<doc><p>delta</p></doc>"))
        assert flix.layout is not pinned
        assert pinned.generation == 0
        assert len(pinned.slots) == len(flix.layout.slots) - 1

    def test_response_carries_layout_generation(self, flix):
        start = flix.collection.document_root("a.xml")
        assert flix.query(QueryRequest.descendants(start)).layout_generation == 0
        flix.add_document(doc("d.xml", "<doc/>"))
        assert flix.query(QueryRequest.descendants(start)).layout_generation == 1

    def test_swap_metrics(self, flix):
        flix.add_document(doc("d.xml", "<doc/>"))
        flix.remove_document("d.xml")
        rendered = flix.export_metrics("prom")
        assert 'flix_layout_swaps_total{verb="add"} 1' in rendered
        assert 'flix_layout_swaps_total{verb="remove"} 1' in rendered
        assert "flix_layout_generation 2" in rendered


class TestRemoveDocument:
    def test_queries_stop_seeing_removed_document(self, flix):
        collection = flix.collection
        start = collection.document_root("a.xml")
        removed = flix.remove_document("b.xml")
        assert len(removed) == 2
        got = descendant_nodes(flix, start)
        assert got == oracle_descendants(collection, start)
        assert not (got & removed)

    def test_removed_node_query_raises(self, flix):
        target = flix.collection.document_root("b.xml")
        flix.remove_document("b.xml")
        with pytest.raises(KeyError):
            list(flix.query_stream(QueryRequest.descendants(target)))

    def test_links_into_removed_document_redangle(self, flix):
        collection = flix.collection
        flix.remove_document("b.xml")
        # a.xml and c.xml both linked to b.xml; both links dangle again
        assert len(collection.unresolved_links) == 2
        # a replacement re-resolves them
        flix.add_document(doc("b.xml", "<doc><p>beta2</p></doc>"))
        assert collection.unresolved_links == []
        start = collection.document_root("a.xml")
        texts = {
            collection.text(r.node)
            for r in flix.query_stream(QueryRequest.descendants(start, tag="p"))
        }
        assert texts == {"alpha", "beta2"}

    def test_singleton_meta_is_tombstoned(self, flix):
        meta = flix.add_document(doc("d.xml", "<doc><p>delta</p></doc>"))
        flix.remove_document("d.xml")
        assert meta.meta_id in flix.layout.tombstones
        assert flix.layout.slots[meta.meta_id] is None
        with pytest.raises(KeyError):
            flix.layout.meta(meta.meta_id)

    def test_partial_meta_is_reindexed(self):
        # a large partition budget puts the whole collection into one
        # meta document, so removal exercises the partial re-index path
        collection = build_collection(base_documents())
        flix = Flix.build(
            collection, FlixConfig.unconnected_hopi(partition_size=100)
        )
        assert len(flix.meta_documents) == 1
        flix.remove_document("c.xml")
        assert len(flix.meta_documents) == 1
        assert flix.layout.tombstones == frozenset()
        flix.self_check()

    def test_unknown_document_raises(self, flix):
        with pytest.raises(KeyError):
            flix.remove_document("missing.xml")

    def test_failed_reindex_leaves_everything_in_place(
        self, monkeypatch, tmp_path
    ):
        collection = build_collection(base_documents())
        flix = Flix.build(
            collection, FlixConfig.unconnected_hopi(partition_size=100)
        )
        wal = flix.enable_wal(tmp_path / "wal.log")
        starts = [
            collection.document_root(name)
            for name in sorted(collection.documents)
        ]

        def state():
            return (
                sorted(collection.documents),
                collection.node_count,
                list(collection.unresolved_links),
                flix.layout_generation,
                flix.index_fingerprint(),
                len(wal.records()[0]),
                [descendant_nodes(flix, start) for start in starts],
            )

        before = state()
        assert before[-1] == [
            oracle_descendants(collection, start) for start in starts
        ]

        def failing_build(strategy, graph, tags):
            raise RuntimeError("injected index build failure")

        with monkeypatch.context() as patch:
            patch.setattr(ib, "build_index", failing_build)
            with pytest.raises(RuntimeError):
                flix.remove_document("c.xml")
        assert state() == before
        flix.self_check()

        assert len(flix.remove_document("c.xml")) == 3
        assert "c.xml" not in collection.documents
        assert flix.layout_generation == before[3] + 1
        assert len(wal.records()[0]) == before[5] + 1
        flix.self_check()

    def test_residual_links_pruned(self, flix):
        flix.add_document(
            doc("d.xml", '<doc><l xlink:href="b.xml"/><p>delta</p></doc>')
        )
        before = flix.report.residual_link_count
        assert before >= 1
        flix.remove_document("d.xml")
        assert flix.report.residual_link_count < before
        for meta in flix.meta_documents:
            for source, targets in meta.outgoing_links.items():
                assert source in meta.nodes
                for target in targets:
                    assert flix.collection.info(target) is not None


class TestUpdateDocument:
    def test_replacement_visible_links_rewired(self, flix):
        collection = flix.collection
        flix.update_document(
            doc("b.xml", '<doc><l xlink:href="c.xml"/><p>beta2</p></doc>')
        )
        start = collection.document_root("a.xml")
        texts = {
            collection.text(r.node)
            for r in flix.query_stream(QueryRequest.descendants(start, tag="p"))
        }
        # a -> b (re-resolved) -> c (the new outgoing link)
        assert texts == {"alpha", "beta2", "gamma"}
        flix.self_check()

    def test_two_publishes(self, flix):
        flix.update_document(doc("b.xml", "<doc><p>beta2</p></doc>"))
        assert flix.layout_generation == 2  # remove + add


class TestAddDocumentsBatch:
    def test_batch_members_link_to_each_other(self, flix):
        collection = flix.collection
        metas = flix.add_documents(
            [
                doc("d.xml", '<doc><l xlink:href="e.xml"/><p>dd</p></doc>'),
                doc("e.xml", '<doc><l xlink:href="d.xml"/><p>ee</p></doc>'),
            ]
        )
        assert [m.meta_id for m in metas] == [3, 4]
        start = collection.document_root("d.xml")
        texts = {
            collection.text(r.node)
            for r in flix.query_stream(QueryRequest.descendants(start, tag="p"))
        }
        assert texts == {"dd", "ee"}
        flix.self_check()

    def test_batch_equivalent_to_sequential(self):
        batch = Flix.build(
            build_collection(base_documents()), FlixConfig.naive()
        )
        sequential = Flix.build(
            build_collection(base_documents()), FlixConfig.naive()
        )
        new_docs = [
            doc("d.xml", '<doc><l xlink:href="a.xml"/><p>dd</p></doc>'),
            doc("e.xml", '<doc><l xlink:href="d.xml"/><p>ee</p></doc>'),
        ]
        batch.add_documents(new_docs)
        for document in [
            doc("d.xml", '<doc><l xlink:href="a.xml"/><p>dd</p></doc>'),
            doc("e.xml", '<doc><l xlink:href="d.xml"/><p>ee</p></doc>'),
        ]:
            sequential.add_document(document)
        for name in batch.collection.documents:
            start = batch.collection.document_root(name)
            assert descendant_nodes(batch, start) == descendant_nodes(
                sequential, start
            )

    def test_empty_batch_is_a_noop(self, flix):
        assert flix.add_documents([]) == []
        assert flix.layout_generation == 0

    def test_batch_failure_rolls_back_every_member(self, flix):
        collection = flix.collection
        docs_before = set(collection.documents)
        nodes_before = collection.node_count
        unresolved_before = list(collection.unresolved_links)
        with pytest.raises(ValueError):
            flix.add_documents(
                [
                    doc("d.xml", "<doc><p>dd</p></doc>"),
                    doc("a.xml", "<doc/>"),  # duplicate name -> fails
                ]
            )
        assert set(collection.documents) == docs_before
        assert collection.node_count == nodes_before
        assert collection.unresolved_links == unresolved_before
        assert flix.layout_generation == 0
        flix.self_check()


class TestCompact:
    def grow(self, flix, n=4):
        for i in range(n):
            flix.add_document(
                doc(
                    f"inc{i}.xml",
                    '<doc><l xlink:href="b.xml"/><p>inc%d</p></doc>' % i,
                )
            )

    def test_candidates_merge_into_one_meta(self, flix):
        self.grow(flix)
        collection = flix.collection
        starts = {
            name: collection.document_root(name)
            for name in collection.documents
        }
        before = {
            name: descendant_nodes(flix, start)
            for name, start in starts.items()
        }
        candidates = flix.layout.compaction_candidates()
        assert len(candidates) == 4
        merged = flix.compact()
        assert merged is not None
        assert set(candidates) <= flix.layout.tombstones
        assert flix.layout.compaction_candidates() == []
        for name, start in starts.items():
            assert descendant_nodes(flix, start) == before[name]
        flix.self_check()

    def test_absorbs_inter_candidate_links(self, flix):
        flix.add_document(doc("d.xml", "<doc><p>dd</p></doc>"))
        flix.add_document(
            doc("e.xml", '<doc><l xlink:href="d.xml"/><p>ee</p></doc>')
        )
        residual_before = flix.report.residual_link_count
        merged = flix.compact()
        # the e->d link was residual between two singleton metas and is
        # now internal to the merged index (naive() allows graph indexes)
        assert flix.report.residual_link_count < residual_before
        assert merged.residual_out_degree < residual_before
        flix.self_check()

    def test_too_few_candidates_is_a_noop(self, flix):
        assert flix.compact() is None
        flix.add_document(doc("d.xml", "<doc/>"))
        assert flix.compact() is None
        assert flix.layout_generation == 1

    def test_explicit_ids_validated(self, flix):
        self.grow(flix, 2)
        with pytest.raises(KeyError):
            flix.compact([1, 99])

    def test_compaction_metric_and_trace(self, flix):
        self.grow(flix, 2)
        flix.compact()
        assert "flix_compactions_total" in flix.export_metrics("prom")
        trace = flix.obs.tracer.last_trace("mdb.compact")
        assert trace is not None
        span_names = {span.name for span in trace.spans}
        assert {"select", "index"} <= span_names

    def test_compacted_meta_not_a_future_candidate(self, flix):
        self.grow(flix, 3)
        merged = flix.compact()
        assert merged.meta_id not in flix.layout.incremental_meta_ids
        assert flix.layout.compaction_candidates() == []


class TestFingerprintDeterminism:
    def mutate(self, flix):
        flix.add_document(doc("d.xml", '<doc><l xlink:href="b.xml"/></doc>'))
        flix.add_documents(
            [doc("e.xml", "<doc/>"), doc("f.xml", "<doc><p>ff</p></doc>")]
        )
        flix.compact()
        flix.remove_document("c.xml")

    def test_same_sequence_same_fingerprint(self):
        one = Flix.build(
            build_collection(base_documents()), FlixConfig.naive()
        )
        two = Flix.build(
            build_collection(base_documents()), FlixConfig.naive()
        )
        self.mutate(one)
        self.mutate(two)
        assert one.index_fingerprint() == two.index_fingerprint()
        one.self_check()

    def test_mutation_changes_fingerprint(self, flix):
        before = flix.index_fingerprint()
        flix.remove_document("c.xml")
        assert flix.index_fingerprint() != before


class TestMaintenancePersistence:
    def test_mutated_layout_round_trips(self, tmp_path):
        collection = build_collection(base_documents())
        flix = Flix.build(collection, FlixConfig.naive())
        flix.add_document(doc("d.xml", '<doc><l xlink:href="b.xml"/></doc>'))
        flix.add_documents([doc("e.xml", "<doc/>"), doc("f.xml", "<doc/>")])
        flix.compact()
        flix.remove_document("c.xml")
        flix.save(tmp_path)
        loaded = Flix.load(collection, tmp_path)
        assert loaded.layout_generation == flix.layout_generation
        assert loaded.layout.tombstones == flix.layout.tombstones
        assert (
            loaded.layout.incremental_meta_ids
            == flix.layout.incremental_meta_ids
        )
        assert loaded.index_fingerprint() == flix.index_fingerprint()
        loaded.self_check()

    def test_loaded_index_keeps_mutating(self, tmp_path):
        collection = build_collection(base_documents())
        flix = Flix.build(collection, FlixConfig.naive())
        flix.add_document(doc("d.xml", "<doc><p>dd</p></doc>"))
        flix.save(tmp_path)
        loaded = Flix.load(collection, tmp_path)
        loaded.add_document(doc("e.xml", "<doc><p>ee</p></doc>"))
        loaded.remove_document("d.xml")
        loaded.self_check()

    def test_resave_drops_orphaned_meta_files(self, tmp_path):
        collection = build_collection(base_documents())
        flix = Flix.build(collection, FlixConfig.naive())
        flix.add_document(doc("d.xml", "<doc/>"))
        flix.add_document(doc("e.xml", "<doc/>"))
        flix.save(tmp_path)
        flix.compact()
        flix.save(tmp_path)
        names = {p.name for p in tmp_path.glob("meta_*")}
        assert names == {
            f"meta_{meta.meta_id:04d}.pack"
            for meta in flix.meta_documents
        }
        loaded = Flix.load(collection, tmp_path)
        assert loaded.index_fingerprint() == flix.index_fingerprint()
