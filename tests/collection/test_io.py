"""Tests for filesystem collection loading and saving."""

import pytest

from repro.collection.io import (
    CollectionLoadError,
    load_collection,
    save_collection,
)
from repro.core.api import QueryRequest
from repro.datasets.movies import generate_movie_collection


class TestSaveLoadRoundTrip:
    def test_round_trip_preserves_structure(self, tmp_path):
        original = generate_movie_collection()
        written = save_collection(original, tmp_path / "movies")
        assert written == original.document_count
        loaded = load_collection(tmp_path / "movies")
        assert loaded.document_count == original.document_count
        assert loaded.node_count == original.node_count
        assert loaded.link_edge_count == original.link_edge_count
        assert sorted(loaded.documents) == sorted(original.documents)

    def test_round_trip_preserves_queries(self, tmp_path):
        from repro.core.config import FlixConfig
        from repro.core.framework import Flix

        original = generate_movie_collection()
        save_collection(original, tmp_path / "m")
        loaded = load_collection(tmp_path / "m")
        flix = Flix.build(loaded, FlixConfig.naive())
        (title,) = loaded.find_by_text("title", "Matrix: Revolutions")
        root = loaded.node_id_of(loaded.element(title).parent)
        results = list(flix.query_stream(QueryRequest.descendants(root, tag="actor")))
        assert results

    def test_files_have_declarations(self, tmp_path):
        save_collection(generate_movie_collection(), tmp_path / "m")
        sample = next((tmp_path / "m").glob("*.xml"))
        assert sample.read_text(encoding="utf-8").startswith("<?xml")


class TestLoadBehaviour:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_collection(tmp_path / "nope")

    def test_subdirectories_included(self, tmp_path):
        (tmp_path / "sub").mkdir()
        (tmp_path / "a.xml").write_text("<a/>", encoding="utf-8")
        (tmp_path / "sub" / "b.xml").write_text("<b/>", encoding="utf-8")
        collection = load_collection(tmp_path)
        assert set(collection.documents) == {"a.xml", "sub/b.xml"}

    def test_relative_links_across_files(self, tmp_path):
        (tmp_path / "a.xml").write_text(
            '<a><l xlink:href="b.xml"/></a>', encoding="utf-8"
        )
        (tmp_path / "b.xml").write_text("<b/>", encoding="utf-8")
        collection = load_collection(tmp_path)
        assert collection.link_edge_count == 1

    def test_strict_mode_raises_on_broken_xml(self, tmp_path):
        (tmp_path / "ok.xml").write_text("<a/>", encoding="utf-8")
        (tmp_path / "bad.xml").write_text("<a><b></a>", encoding="utf-8")
        with pytest.raises(CollectionLoadError) as excinfo:
            load_collection(tmp_path)
        assert "bad.xml" in str(excinfo.value)

    def test_lenient_mode_skips_broken_xml(self, tmp_path):
        (tmp_path / "ok.xml").write_text("<a/>", encoding="utf-8")
        (tmp_path / "bad.xml").write_text("<a><b></a>", encoding="utf-8")
        collection = load_collection(tmp_path, strict=False)
        assert set(collection.documents) == {"ok.xml"}

    def test_pattern_filter(self, tmp_path):
        (tmp_path / "a.xml").write_text("<a/>", encoding="utf-8")
        (tmp_path / "notes.txt").write_text("not xml", encoding="utf-8")
        collection = load_collection(tmp_path)
        assert set(collection.documents) == {"a.xml"}


class TestSaveSafety:
    def test_escaping_names_rejected(self, tmp_path):
        from repro.collection.builder import build_collection
        from repro.collection.document import XmlDocument

        collection = build_collection(
            [XmlDocument.from_text("../evil.xml", "<a/>")]
        )
        with pytest.raises(ValueError):
            save_collection(collection, tmp_path / "out")

    def test_nested_names_create_directories(self, tmp_path):
        from repro.collection.builder import build_collection
        from repro.collection.document import XmlDocument

        collection = build_collection(
            [XmlDocument.from_text("deep/nested/d.xml", "<a/>")]
        )
        save_collection(collection, tmp_path / "out")
        assert (tmp_path / "out" / "deep" / "nested" / "d.xml").exists()


class TestLayoutSidecar:
    """``collection_layout.json`` pins node ids across reloads."""

    def _grown_collection(self):
        from repro.collection.builder import (
            build_collection,
            register_document,
            unregister_document,
        )
        from repro.collection.document import XmlDocument

        collection = build_collection(
            [
                XmlDocument.from_text("m.xml", "<m><p>one</p></m>"),
                XmlDocument.from_text("z.xml", "<z/>"),
            ]
        )
        # grow out of sorted order, then shrink: 'a.xml' registers after
        # 'z.xml', and removing 'b.xml' leaves a tombstoned id hole
        register_document(
            collection, XmlDocument.from_text("b.xml", "<b><q/></b>")
        )
        register_document(
            collection, XmlDocument.from_text("a.xml", "<a><r/><s/></a>")
        )
        unregister_document(collection, "b.xml")
        return collection

    def _id_map(self, collection):
        return {
            name: list(ids)
            for name, ids in collection._nodes_by_document.items()
        }

    def test_mutated_collection_round_trips_ids(self, tmp_path):
        original = self._grown_collection()
        save_collection(original, tmp_path, prune=True)
        assert (tmp_path / "collection_layout.json").is_file()
        reloaded = load_collection(tmp_path)
        assert self._id_map(reloaded) == self._id_map(original)
        assert reloaded.node_count == original.node_count
        for name, ids in self._id_map(original).items():
            for node_id in ids:
                assert reloaded.info(node_id).tag == original.info(node_id).tag

    def test_directory_without_sidecar_loads_classically(self, tmp_path):
        from repro.collection.builder import build_collection
        from repro.collection.document import XmlDocument

        docs = [
            XmlDocument.from_text("a.xml", "<a/>"),
            XmlDocument.from_text("b.xml", "<b/>"),
        ]
        for doc in docs:
            (tmp_path / doc.name).write_text("<%s/>" % doc.name[0])
        reloaded = load_collection(tmp_path)
        assert self._id_map(reloaded) == self._id_map(build_collection(docs))

    def test_never_mutated_collection_is_unchanged_by_sidecar(self, tmp_path):
        from repro.collection.builder import build_collection
        from repro.collection.document import XmlDocument

        docs = [
            XmlDocument.from_text("a.xml", "<a><p/></a>"),
            XmlDocument.from_text("b.xml", "<b/>"),
        ]
        collection = build_collection(docs)
        save_collection(collection, tmp_path)
        reloaded = load_collection(tmp_path)
        assert self._id_map(reloaded) == self._id_map(collection)

    def test_prune_deletes_removed_documents(self, tmp_path):
        from repro.collection.builder import unregister_document

        collection = self._grown_collection()
        save_collection(collection, tmp_path, prune=True)
        unregister_document(collection, "z.xml")
        save_collection(collection, tmp_path, prune=True)
        assert not (tmp_path / "z.xml").exists()
        reloaded = load_collection(tmp_path)
        assert set(reloaded.documents) == set(collection.documents)
        assert self._id_map(reloaded) == self._id_map(collection)

    def test_corrupt_sidecar_falls_back_to_sorted_order(self, tmp_path):
        collection = self._grown_collection()
        save_collection(collection, tmp_path, prune=True)
        (tmp_path / "collection_layout.json").write_text("{torn", "utf-8")
        reloaded = load_collection(tmp_path)  # classic order, no crash
        assert set(reloaded.documents) == set(collection.documents)

    def test_non_integer_starts_fall_back_to_sorted_order(self, tmp_path):
        import json

        collection = self._grown_collection()
        save_collection(collection, tmp_path, prune=True)
        sidecar = tmp_path / "collection_layout.json"
        layout = json.loads(sidecar.read_text("utf-8"))
        layout["starts"] = {name: "not-an-int" for name in layout["starts"]}
        sidecar.write_text(json.dumps(layout), "utf-8")
        reloaded = load_collection(tmp_path)  # degrades, never raises
        assert set(reloaded.documents) == set(collection.documents)

    def test_non_object_sidecar_falls_back_to_sorted_order(self, tmp_path):
        collection = self._grown_collection()
        save_collection(collection, tmp_path, prune=True)
        (tmp_path / "collection_layout.json").write_text("[1, 2]", "utf-8")
        reloaded = load_collection(tmp_path)
        assert set(reloaded.documents) == set(collection.documents)

    def test_hand_added_file_registers_after_layout(self, tmp_path):
        collection = self._grown_collection()
        save_collection(collection, tmp_path, prune=True)
        (tmp_path / "extra.xml").write_text("<extra/>", encoding="utf-8")
        reloaded = load_collection(tmp_path)
        id_map = self._id_map(reloaded)
        known = self._id_map(collection)
        assert {k: v for k, v in id_map.items() if k != "extra.xml"} == known
        assert min(id_map["extra.xml"]) > max(
            node_id for ids in known.values() for node_id in ids
        )
