"""Crash-atomic saves: staging, the manifest commit point, roll-forward.

``save_flix`` stages every file under a ``.tmp`` sibling, atomically
replaces the manifest (the commit point), then renames the staged files
over the final names and cleans stale ones.  These tests reconstruct
the on-disk state a crash leaves at each phase boundary and assert that
loading (or verifying) the directory always sees a complete save —
the old one before the commit point, the new one after it.
"""

from __future__ import annotations

import json
import os
import shutil
from types import SimpleNamespace

import pytest

from repro.core.config import FlixConfig
from repro.core.framework import Flix
from repro.core.persistence import (
    TMP_SUFFIX,
    load_flix,
    save_flix,
    verify_flix,
)
from repro.datasets.dblp import DblpSpec, generate_dblp
from tests.conftest import added_documents


@pytest.fixture()
def crashed_save(tmp_path):
    """A deployment directory caught between a save's manifest commit
    and its per-file renames: the new manifest under the final name,
    the old files under theirs, every new file still a ``.tmp``."""
    collection = generate_dblp(DblpSpec(documents=6, seed=7))
    flix = Flix.build(collection, FlixConfig.naive())
    directory = tmp_path / "idx"
    save_flix(flix, directory)
    for doc in added_documents(2):
        flix.add_document(doc)
    # a clean save of the mutated index provides the staged content a
    # crashed in-place save would have left (blobs are byte-identical)
    staging = tmp_path / "staging"
    save_flix(flix, staging)
    manifest = json.loads((staging / "manifest.json").read_text())
    for filename in manifest["integrity"]["files"]:
        shutil.copy2(staging / filename, directory / (filename + TMP_SUFFIX))
    shutil.copy2(staging / "manifest.json", directory / "manifest.json")
    return SimpleNamespace(
        collection=collection,
        flix=flix,
        directory=directory,
        manifest=manifest,
    )


def test_load_rolls_a_crashed_save_forward(crashed_save):
    loaded = load_flix(crashed_save.collection, crashed_save.directory)
    assert (
        loaded.index_fingerprint() == crashed_save.flix.index_fingerprint()
    )
    assert loaded.layout_generation == crashed_save.flix.layout_generation
    # the roll-forward completed every pending rename: one blob per
    # meta document and the links blob, nothing else
    assert not list(crashed_save.directory.glob("*" + TMP_SUFFIX))
    named = set(crashed_save.manifest["integrity"]["files"])
    assert named == {"links.pack"} | {
        f"meta_{meta.meta_id:04d}.pack"
        for meta in crashed_save.flix.meta_documents
    }
    assert named | {"manifest.json"} == {
        path.name for path in crashed_save.directory.iterdir()
    }


def test_verify_settles_then_reports_clean(crashed_save):
    assert verify_flix(crashed_save.collection, crashed_save.directory) == []


def test_partial_renames_also_roll_forward(crashed_save):
    # the crash landed mid-publish: some renames already happened
    files = sorted(crashed_save.manifest["integrity"]["files"])
    first = files[0]
    os.replace(
        crashed_save.directory / (first + TMP_SUFFIX),
        crashed_save.directory / first,
    )
    loaded = load_flix(crashed_save.collection, crashed_save.directory)
    assert (
        loaded.index_fingerprint() == crashed_save.flix.index_fingerprint()
    )


def test_stray_stage_files_do_not_damage_a_committed_save(tmp_path):
    """A crash during staging leaves ``.tmp`` strays under the *old*
    manifest: the old save loads untouched, and the next successful
    save cleans the strays up."""
    collection = generate_dblp(DblpSpec(documents=6, seed=7))
    flix = Flix.build(collection, FlixConfig.naive())
    directory = tmp_path / "idx"
    save_flix(flix, directory)
    fingerprint = flix.index_fingerprint()

    (directory / ("meta_0000.pack" + TMP_SUFFIX)).write_bytes(b"torn")
    (directory / ("links.pack" + TMP_SUFFIX)).write_bytes(b"torn")
    (directory / ("zombie.pack" + TMP_SUFFIX)).write_bytes(b"junk")
    assert verify_flix(collection, directory) == []
    loaded = load_flix(collection, directory)
    assert loaded.index_fingerprint() == fingerprint

    save_flix(flix, directory)
    assert not list(directory.glob("*" + TMP_SUFFIX))


def test_save_never_touches_the_committed_files_before_commit(tmp_path):
    """The staging phase must not modify any file the current manifest
    references — that is the property the commit point stands on."""
    collection = generate_dblp(DblpSpec(documents=6, seed=7))
    flix = Flix.build(collection, FlixConfig.naive())
    directory = tmp_path / "idx"
    save_flix(flix, directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    before = {
        name: (directory / name).read_bytes()
        for name in manifest["integrity"]["files"]
    }

    # crash the save at its commit point: let staging run, then stop
    # right before the manifest replace
    import repro.core.persistence as persistence

    real = persistence.atomic_write_text

    class Boom(RuntimeError):
        pass

    def exploding(path, text, *args, **kwargs):
        raise Boom("crash before the manifest commit")

    persistence.atomic_write_text = exploding
    try:
        with pytest.raises(Boom):
            save_flix(flix, directory)
    finally:
        persistence.atomic_write_text = real

    for name, content in before.items():
        assert (directory / name).read_bytes() == content, name
    assert verify_flix(collection, directory) == []
