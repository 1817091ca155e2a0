"""``Flix.size_bytes()`` is the byte total of the blobs a save writes.

One stored form means one size: every meta document's ``meta_NNNN.pack``
plus ``links.pack``.  Held for every preset on two collections, for the
closure layout, and after maintenance verbs.
"""

from __future__ import annotations

import pytest

from repro.core.config import FlixConfig
from repro.core.framework import Flix
from repro.datasets.synthetic import generate_figure1_collection
from tests.conftest import added_documents

PRESETS = {
    "naive": FlixConfig.naive,
    "maximal_ppo": FlixConfig.maximal_ppo,
    "unconnected_hopi": lambda: FlixConfig.unconnected_hopi(60),
    "hybrid": lambda: FlixConfig.hybrid(60),
    "monolithic": lambda: FlixConfig.monolithic("hopi"),
    "auto_subcollections": FlixConfig.auto_subcollections,
    "recommended": None,  # FlixConfig.recommend_for the collection
    "closure": lambda: FlixConfig.monolithic("transitive_closure"),
}


def pack_bytes(directory):
    return sum(path.stat().st_size for path in directory.glob("*.pack"))


def assert_size_is_the_saved_blobs(flix, directory):
    flix.save(directory)
    assert sorted(p.suffix for p in directory.iterdir() if p.suffix) == (
        [".json"] + [".pack"] * (len(flix.meta_documents) + 1)
    )
    assert flix.size_bytes() == pack_bytes(directory)


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("which", ["figure1", "dblp"])
def test_size_is_the_saved_blobs(
    preset, which, figure1_collection, dblp_collection, tmp_path
):
    collection = figure1_collection if which == "figure1" else dblp_collection
    make = PRESETS[preset]
    config = FlixConfig.recommend_for(collection) if make is None else make()
    flix = Flix.build(collection, config)
    assert_size_is_the_saved_blobs(flix, tmp_path)
    # the build report counts the same bytes
    assert flix.size_bytes() == flix.report.total_index_bytes


def test_size_after_maintenance_is_the_saved_blobs(tmp_path):
    # the verbs mutate the collection: a private copy, not the fixture
    collection = generate_figure1_collection()
    flix = Flix.build(collection, FlixConfig.hybrid(60))
    flix.add_documents(added_documents(3))
    flix.remove_document(sorted(collection.documents)[0])
    flix.compact()
    assert_size_is_the_saved_blobs(flix, tmp_path)
