"""Format-1 saves load, and their first save writes only blobs.

The saves under ``tests/fixtures/format1/`` were written by the format-1
writer (residual links in ``framework.sqlite``; a meta document without a
blob saved as its tables in ``meta_NNNN.sqlite``).  Loading one reads the
SQLite files read-only, re-derives table-format meta documents from the
collection, and must answer exactly like a fresh build; a crash anywhere
between that load and the first blob save leaves the format-1 save
loadable.
"""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro.collection.builder import build_collection
from repro.core.api import QueryRequest
from repro.core.config import FlixConfig
from repro.core.framework import Flix
from repro.core.persistence import (
    TMP_SUFFIX,
    IntegrityError,
    PersistenceError,
    load_flix,
    repair_flix,
    save_flix,
    verify_flix,
)
from repro.datasets.synthetic import generate_figure1_collection
from repro.indexes.packed import is_packed
from tests.conftest import FORMAT1_CONFIGS, copy_format1_save, parity_requests

SAVES = sorted(FORMAT1_CONFIGS)


def requests(collection):
    """Every request kind, plus both axes from every document root."""
    out = [request for _, request in parity_requests(collection)]
    for name in sorted(collection.documents):
        root = collection.document_root(name)
        out.append(QueryRequest.descendants(root))
        out.append(QueryRequest.ancestors(root + 1))
    return out


def assert_answers_like(fresh, loaded, collection):
    assert loaded.index_fingerprint() == fresh.index_fingerprint()
    assert [m.strategy for m in loaded.meta_documents] == [
        m.strategy for m in fresh.meta_documents
    ]
    for request in requests(collection):
        got, want = loaded.query(request), fresh.query(request)
        assert got.results == want.results, request
        assert got.value == want.value, request
        assert got.stats == want.stats, request


@pytest.fixture()
def legacy(request, figure1_collection, tmp_path):
    name = request.param
    return (
        name,
        copy_format1_save(name, tmp_path),
        Flix.build(figure1_collection, FORMAT1_CONFIGS[name]()),
    )


@pytest.mark.parametrize("legacy", SAVES, indirect=True)
class TestFormat1Saves:
    def test_loads_like_a_fresh_build(self, legacy, figure1_collection):
        _, directory, fresh = legacy
        manifest = json.loads((directory / "manifest.json").read_text())
        assert manifest["format_version"] == 1
        assert (directory / "framework.sqlite").is_file()
        loaded = load_flix(figure1_collection, directory)
        assert all(is_packed(m.index) for m in loaded.meta_documents)
        assert loaded.size_bytes() == fresh.size_bytes()
        assert_answers_like(fresh, loaded, figure1_collection)

    def test_resave_leaves_only_the_manifest_and_blobs(
        self, legacy, figure1_collection, monkeypatch
    ):
        _, directory, fresh = legacy
        loaded = load_flix(figure1_collection, directory)
        loaded.save(directory)
        names = {p.name for p in directory.iterdir()}
        assert names == {"manifest.json", "links.pack"} | {
            f"meta_{m.meta_id:04d}.pack" for m in loaded.meta_documents
        }
        manifest = json.loads((directory / "manifest.json").read_text())
        assert manifest["format_version"] == 2
        assert manifest["integrity"]["algorithm"] == {
            "pack": "sha256-raw-bytes"
        }
        opened = []
        connect = sqlite3.connect
        monkeypatch.setattr(
            sqlite3, "connect",
            lambda *a, **k: opened.append(a) or connect(*a, **k),
        )
        again = load_flix(figure1_collection, directory)
        assert opened == []
        assert_answers_like(fresh, again, figure1_collection)

    def test_damaged_sqlite_raises_integrity_error(
        self, legacy, figure1_collection
    ):
        name, directory, _ = legacy
        victims = ["framework.sqlite"] + sorted(
            p.name for p in directory.glob("meta_*.sqlite")
        )
        for victim in victims:
            (directory / victim).write_bytes(b"not a database")
        with pytest.raises(IntegrityError) as excinfo:
            load_flix(figure1_collection, directory)
        assert excinfo.value.damaged == sorted(victims)
        assert verify_flix(figure1_collection, directory) == sorted(victims)


@pytest.mark.parametrize("name", ["closure", "tables", "summary"])
def test_incremental_table_entry_is_refused_by_name(
    name, figure1_collection, tmp_path
):
    """An incrementally added meta document is not what the MDB derives
    from the collection: a table-format one cannot be re-derived, the
    rule :func:`repair_flix` applies to a damaged incremental blob."""
    directory = copy_format1_save(name, tmp_path)
    manifest_path = directory / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    entry = manifest["meta_documents"][-1]
    entry["incremental"] = True
    manifest_path.write_text(json.dumps(manifest))
    filename = f"meta_{entry['meta_id']:04d}.sqlite"
    with pytest.raises(PersistenceError, match=filename):
        load_flix(figure1_collection, directory)


def test_table_entry_that_no_longer_derives_is_refused(
    figure1_collection, tmp_path
):
    """A configuration whose specs cut the collection differently than
    the saved tables did is caught by the content check."""
    directory = copy_format1_save("tables", tmp_path)
    manifest_path = directory / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["config"]["partition_size"] = 25
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(PersistenceError, match=r"meta_\d{4}\.sqlite"):
        load_flix(figure1_collection, directory)


def drifted_collection():
    """The figure-1 collection with one element renamed: its document,
    element and link counts, all the manifest checks, are unchanged."""
    documents = generate_figure1_collection().documents
    documents["d05.xml"].elements[3].name = "renamed"
    documents["d05.xml"].invalidate_caches()
    return build_collection(documents.values())


def test_table_entry_is_checked_against_its_saved_content(tmp_path):
    """The APEX extents hold every node's tag: a re-derived entry that
    differs from them is refused, not served beside the saved one."""
    directory = copy_format1_save("summary", tmp_path)
    with pytest.raises(PersistenceError, match=r"meta_0000\.sqlite"):
        load_flix(drifted_collection(), directory)


# ----------------------------------------------------------------------
# repair: damaged SQLite files are re-derived and the save upgraded
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", SAVES)
def test_repair_upgrades_a_damaged_format1_save(
    name, figure1_collection, tmp_path
):
    directory = copy_format1_save(name, tmp_path)
    victims = ["framework.sqlite"] + sorted(
        p.name for p in directory.glob("meta_*.sqlite")
    )
    for victim in victims:
        (directory / victim).write_bytes(b"not a database")
    assert repair_flix(figure1_collection, directory) == sorted(victims)
    manifest = json.loads((directory / "manifest.json").read_text())
    assert manifest["format_version"] == 2
    assert not list(directory.glob("*.sqlite"))
    fresh = Flix.build(figure1_collection, FORMAT1_CONFIGS[name]())
    assert_answers_like(
        fresh, load_flix(figure1_collection, directory), figure1_collection
    )


@pytest.mark.parametrize("victim", ["framework.sqlite", "meta_0000.sqlite"])
def test_repair_refuses_what_no_longer_derives(
    victim, figure1_collection, tmp_path
):
    """Re-derived content must hash to the recorded fingerprint; when it
    does not, the format-1 save is left as it was."""
    directory = copy_format1_save("closure", tmp_path)
    manifest_path = directory / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["integrity"]["files"][victim] = "0" * 64
    manifest_path.write_text(json.dumps(manifest))
    (directory / victim).write_bytes(b"not a database")
    before = {p.name: p.read_bytes() for p in directory.iterdir()}
    with pytest.raises(PersistenceError, match=victim.replace(".", r"\.")):
        repair_flix(figure1_collection, directory)
    assert {p.name: p.read_bytes() for p in directory.iterdir()} == before


def test_twin_sqlite_of_a_blob_is_never_opened(
    figure1_collection, tmp_path, monkeypatch
):
    """The ``hybrid`` save's metas are blobs: loading it reads only
    ``framework.sqlite`` (verification, then the links)."""
    directory = copy_format1_save("hybrid", tmp_path)
    opened = []
    connect = sqlite3.connect

    def recording(database, *args, **kwargs):
        opened.append(database.rsplit("/", 1)[-1].split("?")[0])
        return connect(database, *args, **kwargs)

    monkeypatch.setattr(sqlite3, "connect", recording)
    load_flix(figure1_collection, directory)
    assert opened == ["framework.sqlite", "framework.sqlite"]


# ----------------------------------------------------------------------
# a crash between the legacy load and the first blob save
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", SAVES)
def test_crash_before_the_commit_keeps_the_format1_save(
    name, figure1_collection, tmp_path, monkeypatch
):
    """Staging never touches the format-1 files; the save dies right
    before its manifest replace and leaves ``.tmp`` strays."""
    import repro.core.persistence as persistence

    directory = copy_format1_save(name, tmp_path)
    before = {p.name: p.read_bytes() for p in directory.iterdir()}
    loaded = load_flix(figure1_collection, directory)

    class Crash(RuntimeError):
        pass

    def crash(*args, **kwargs):
        raise Crash("killed before the manifest commit")

    monkeypatch.setattr(persistence, "atomic_write_text", crash)
    with pytest.raises(Crash):
        save_flix(loaded, directory)
    monkeypatch.undo()
    assert list(directory.glob("*" + TMP_SUFFIX))
    for filename, content in before.items():
        assert (directory / filename).read_bytes() == content, filename
    assert verify_flix(figure1_collection, directory) == []
    fresh = Flix.build(figure1_collection, FORMAT1_CONFIGS[name]())
    assert_answers_like(
        fresh, load_flix(figure1_collection, directory), figure1_collection
    )
    # the next save completes the upgrade and sweeps the strays
    load_flix(figure1_collection, directory).save(directory)
    assert not list(directory.glob("*" + TMP_SUFFIX))
    assert not list(directory.glob("*.sqlite"))


@pytest.mark.parametrize("renamed", [0, 1, "all"])
@pytest.mark.parametrize("name", SAVES)
def test_crash_after_the_commit_rolls_forward(
    name, renamed, figure1_collection, tmp_path
):
    """The new manifest is in place, none, one or all of the staged
    blobs renamed, the SQLite files not yet swept: the next load rolls
    the save forward and never needs the format-1 files."""
    directory = copy_format1_save(name, tmp_path)
    loaded = load_flix(figure1_collection, directory)
    staging = tmp_path / "staging"
    save_flix(loaded, staging)
    manifest = json.loads((staging / "manifest.json").read_text())
    files = sorted(manifest["integrity"]["files"])
    for index, filename in enumerate(files):
        done = renamed == "all" or index < renamed
        target = filename if done else filename + TMP_SUFFIX
        (directory / target).write_bytes((staging / filename).read_bytes())
    (directory / "manifest.json").write_text(
        (staging / "manifest.json").read_text()
    )
    assert verify_flix(figure1_collection, directory) == []
    recovered = load_flix(figure1_collection, directory)
    fresh = Flix.build(figure1_collection, FORMAT1_CONFIGS[name]())
    assert_answers_like(fresh, recovered, figure1_collection)
    assert not list(directory.glob("*" + TMP_SUFFIX))
    recovered.save(directory)
    assert not list(directory.glob("*.sqlite"))


def test_upgrade_keeps_the_closure_packed(figure1_collection, tmp_path):
    """The closure meta of a format-1 save comes back as a blob."""
    directory = copy_format1_save("closure", tmp_path)
    loaded = load_flix(figure1_collection, directory)
    (meta,) = loaded.meta_documents
    assert meta.strategy == "transitive_closure"
    assert is_packed(meta.index)
    loaded.save(directory)
    assert sorted(p.name for p in directory.iterdir()) == [
        "links.pack", "manifest.json", "meta_0000.pack",
    ]
    assert FlixConfig.monolithic("transitive_closure") == load_flix(
        figure1_collection, directory
    ).config


@pytest.mark.parametrize("name", SAVES)
def test_format1_save_caught_mid_rename_rolls_forward(
    name, figure1_collection, tmp_path
):
    """A format-1 writer that died after its commit point left its
    SQLite files as ``.tmp`` siblings: they are settled by table
    content, like a staged blob by its bytes."""
    directory = copy_format1_save(name, tmp_path)
    for path in sorted(directory.glob("*.sqlite")):
        path.rename(path.with_name(path.name + TMP_SUFFIX))
    assert verify_flix(figure1_collection, directory) == []
    assert not list(directory.glob("*" + TMP_SUFFIX))
    fresh = Flix.build(figure1_collection, FORMAT1_CONFIGS[name]())
    assert_answers_like(
        fresh, load_flix(figure1_collection, directory), figure1_collection
    )
