"""Tests for whole-index persistence (Flix.save / Flix.load)."""

import gc
import json
import shutil
import weakref

import pytest

from repro.core.api import QueryRequest
from repro.core.config import FlixConfig
from repro.core.framework import Flix
from repro.core.persistence import (
    PersistenceError,
    load_flix,
    repair_flix,
    verify_flix,
)
from repro.datasets.dblp import DblpSpec, generate_dblp
from repro.graph.closure import transitive_closure
from repro.indexes.packed import is_packed
from tests.conftest import FORMAT1_FIXTURES, copy_format1_save


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


class TestOneCopy:
    """The blob is the index: one copy of every meta document, in memory
    and on disk (``docs/DATA_LAYOUT.md``)."""

    def test_build_drops_the_build_time_tables(
        self, figure1_collection, monkeypatch
    ):
        """The object indexes the build packs are dropped: after the
        build only the blobs are alive."""
        from repro.core import ib

        produced = []
        build = ib.execute_build_request

        def recording(request, graph=None):
            index = build(request, graph=graph)
            produced.append(weakref.ref(index))
            return index

        monkeypatch.setattr(ib, "execute_build_request", recording)
        flix = Flix.build(figure1_collection, FlixConfig.hybrid(60))
        assert len(produced) == len(flix.meta_documents)
        assert all(is_packed(meta.index) for meta in flix.meta_documents)
        gc.collect()
        assert [ref for ref in produced if ref() is not None] == []

    @pytest.mark.parametrize("twins", ["deleted", "corrupted", "intact"])
    def test_twin_format_save_upgrades_on_load(
        self, twins, figure1_collection, tmp_path
    ):
        """A save from when every blob carried a ``.sqlite`` table twin
        (both under ``integrity.files``, one label for both hashes) loads
        from the blobs alone: the twins are neither opened, fingerprinted
        nor required, and the next save drops them."""
        config = FlixConfig.hybrid(60)
        fresh = Flix.build(figure1_collection, config)
        old = write_table_twins(tmp_path)
        twin_names = sorted(p.name for p in old.glob("meta_*.sqlite"))
        assert len(twin_names) == len(fresh.meta_documents)
        manifest = json.loads((old / "manifest.json").read_text())
        assert set(twin_names) < set(manifest["integrity"]["files"])
        assert manifest["integrity"]["algorithm"] == "sha256-table-content"
        for name in twin_names:
            if twins == "deleted":
                (old / name).unlink()
            elif twins == "corrupted":
                (old / name).write_bytes(b"not a database")

        assert verify_flix(figure1_collection, old) == []
        assert repair_flix(figure1_collection, old) == []
        # a damaged blob of such a save is still repaired from the collection
        victim = sorted(old.glob("meta_*.pack"))[0]
        victim.write_bytes(b"zap")
        assert verify_flix(figure1_collection, old) == [victim.name]
        assert repair_flix(figure1_collection, old) == [victim.name]
        assert verify_flix(figure1_collection, old) == []

        loaded = load_flix(figure1_collection, old)  # verify=True default
        assert loaded.index_fingerprint() == fresh.index_fingerprint()
        for name in sorted(figure1_collection.documents)[:5]:
            request = QueryRequest.descendants(
                figure1_collection.document_root(name)
            )
            assert loaded.query(request).results == fresh.query(request).results

        loaded.save(old)  # phase 4 removes the stale twins
        assert not list(old.glob("*.sqlite"))
        resaved = json.loads((old / "manifest.json").read_text())
        assert not set(twin_names) & set(resaved["integrity"]["files"])
        again = load_flix(figure1_collection, old)
        assert again.index_fingerprint() == fresh.index_fingerprint()

    def test_all_packed_load_opens_only_the_framework_tables(
        self, figure1_collection, tmp_path, monkeypatch
    ):
        """A current save is blobs only: loading it (with or without the
        verification pass) opens no SQLite file at all."""
        import sqlite3

        Flix.build(figure1_collection, FlixConfig.hybrid(60)).save(tmp_path)
        opened = []
        connect = sqlite3.connect

        def counting(*args, **kwargs):
            opened.append(args[0] if args else kwargs.get("database"))
            return connect(*args, **kwargs)

        monkeypatch.setattr(sqlite3, "connect", counting)
        # ... and never reads the collection's tags, which only the
        # re-derivation of a format-1 table entry needs
        tag_calls = []
        monkeypatch.setattr(
            figure1_collection, "tag", lambda node: tag_calls.append(node)
        )
        load_flix(figure1_collection, tmp_path, verify=False)
        load_flix(figure1_collection, tmp_path)  # + the verification pass
        assert opened == []
        assert tag_calls == []


def write_table_twins(directory):
    """The format saves had while every blob carried a ``.sqlite`` table
    twin, put together from two format-1 saves of the same build: the
    ``hybrid`` blobs, the ``tables`` twins, both under
    ``integrity.files`` and one label for both hashes."""
    root = copy_format1_save("hybrid", directory)
    tables = FORMAT1_FIXTURES / "tables"
    manifest = json.loads((root / "manifest.json").read_text())
    twins = json.loads((tables / "manifest.json").read_text())
    for path in sorted(tables.glob("meta_*.sqlite")):
        shutil.copyfile(path, root / path.name)
        manifest["integrity"]["files"][path.name] = (
            twins["integrity"]["files"][path.name]
        )
    manifest["integrity"]["algorithm"] = "sha256-table-content"
    (root / "manifest.json").write_text(json.dumps(manifest))
    return root
