"""Self-healing persistence: checksums, integrity verification, repair."""

import json

import pytest

from repro.core.api import QueryRequest
from repro.core.config import FlixConfig
from repro.core.framework import Flix
from repro.core.persistence import (
    IntegrityError,
    PersistenceError,
    load_flix,
    repair_flix,
    save_flix,
    verify_flix,
)
from tests.conftest import copy_format1_save


@pytest.fixture()
def saved(figure1_collection, tmp_path):
    config = FlixConfig.hybrid(40)
    flix = Flix.build(figure1_collection, config)
    directory = tmp_path / "idx"
    save_flix(flix, directory)
    return figure1_collection, directory, flix.index_fingerprint()


class TestIntegritySection:
    def test_manifest_records_per_file_checksums(self, saved):
        _, directory, _ = saved
        manifest = json.loads((directory / "manifest.json").read_text())
        files = manifest["integrity"]["files"]
        on_disk = {
            p.name
            for p in directory.iterdir()
            if p.suffix in (".sqlite", ".pack")
        }
        assert set(files) == on_disk
        assert all(len(v) == 64 for v in files.values())  # sha256 hex

    def test_intact_save_verifies_clean(self, saved):
        collection, directory, _ = saved
        assert verify_flix(collection, directory) == []



class TestVerificationOnLoad:
    def test_corrupted_file_rejected_by_name(self, saved):
        collection, directory, _ = saved
        victim = sorted(directory.glob("meta_*.pack"))[1]
        victim.write_bytes(b"\x00garbage\x00" * 64)
        with pytest.raises(IntegrityError) as excinfo:
            load_flix(collection, directory)
        assert excinfo.value.damaged == [victim.name]

    def test_missing_file_rejected(self, saved):
        collection, directory, _ = saved
        (directory / "links.pack").unlink()
        assert verify_flix(collection, directory) == ["links.pack"]

    def test_silent_row_tamper_detected(self, saved, tmp_path):
        """A format-1 save's SQLite files are checked by their table
        content: a deleted row is damage, whatever the file bytes."""
        import sqlite3

        collection = saved[0]
        directory = copy_format1_save("hybrid", tmp_path)
        assert verify_flix(collection, directory) == []
        victim = directory / "framework.sqlite"
        conn = sqlite3.connect(victim)
        table = conn.execute(
            "SELECT name FROM sqlite_master WHERE type='table' LIMIT 1"
        ).fetchone()[0]
        conn.execute(f"DELETE FROM {table} WHERE rowid = 1")
        conn.commit()
        conn.close()
        assert verify_flix(collection, directory) == [victim.name]
        with pytest.raises(IntegrityError) as excinfo:
            load_flix(collection, directory)
        assert excinfo.value.damaged == [victim.name]
        # repaired by re-deriving the links and upgrading to blobs
        assert repair_flix(collection, directory) == [victim.name]
        assert not list(directory.glob("*.sqlite"))
        fresh = Flix.build(collection, FlixConfig.hybrid(60))
        assert load_flix(collection, directory).index_fingerprint() == (
            fresh.index_fingerprint()
        )

    def test_verification_can_be_skipped(self, saved):
        collection, directory, fingerprint = saved
        manifest_path = directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        name = sorted(manifest["integrity"]["files"])[0]
        manifest["integrity"]["files"][name] = "0" * 64
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(IntegrityError):
            load_flix(collection, directory)
        loaded = load_flix(collection, directory, verify=False)
        assert loaded.index_fingerprint() == fingerprint

    def test_pre_integrity_saves_still_load(self, saved):
        collection, directory, fingerprint = saved
        manifest_path = directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["integrity"]  # simulate an older save
        manifest_path.write_text(json.dumps(manifest))
        loaded = load_flix(collection, directory)
        assert loaded.index_fingerprint() == fingerprint


class TestRepair:
    def test_repair_of_intact_save_is_a_noop(self, saved):
        collection, directory, _ = saved
        before = {p.name: p.read_bytes() for p in directory.iterdir()}
        assert repair_flix(collection, directory) == []
        after = {p.name: p.read_bytes() for p in directory.iterdir()}
        assert before == after

    def test_repair_restores_fingerprint_identical_index(self, saved):
        collection, directory, fingerprint = saved
        victims = sorted(directory.glob("meta_*.pack"))[:2]
        victims[0].write_bytes(b"ruined")
        victims[1].unlink()
        (directory / "links.pack").write_bytes(b"also ruined")

        repaired = repair_flix(collection, directory)
        assert repaired == [
            "links.pack",
            victims[0].name,
            victims[1].name,
        ]
        assert verify_flix(collection, directory) == []
        loaded = load_flix(collection, directory)
        assert loaded.index_fingerprint() == fingerprint

    def test_repair_leaves_intact_files_untouched(self, saved):
        collection, directory, _ = saved
        intact = sorted(directory.glob("meta_*.pack"))[1:]
        before = {p.name: p.read_bytes() for p in intact}
        sorted(directory.glob("meta_*.pack"))[0].write_bytes(b"zap")
        repair_flix(collection, directory)
        assert {p.name: p.read_bytes() for p in intact} == before

    def test_repaired_save_answers_like_original(self, saved):
        collection, directory, _ = saved
        original = load_flix(collection, directory)
        starts = [
            collection.document_root(name)
            for name in sorted(collection.documents)[:3]
        ]
        expected = {
            s: [
                (r.node, r.distance)
                for r in original.query_stream(QueryRequest.descendants(s))
            ]
            for s in starts
        }
        del original  # it maps the blob about to be overwritten in place
        sorted(directory.glob("meta_*.pack"))[0].write_bytes(b"zap")
        repair_flix(collection, directory)
        repaired = load_flix(collection, directory)
        for s in starts:
            assert [
                (r.node, r.distance) for r in repaired.query_stream(
                    QueryRequest.descendants(s)
                )
            ] == expected[s]

    def test_flix_repair_classmethod(self, saved):
        collection, directory, _ = saved
        (directory / "links.pack").unlink()
        assert Flix.repair(collection, directory) == ["links.pack"]

    def test_repair_rejects_wrong_collection(self, saved):
        from repro.datasets.dblp import DblpSpec, generate_dblp

        _, directory, _ = saved
        other = generate_dblp(DblpSpec(documents=10))
        with pytest.raises(PersistenceError, match="fingerprint mismatch"):
            repair_flix(other, directory)
