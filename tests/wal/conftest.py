"""Shared fixtures for the durability (WAL / recovery / replication) tests.

Every scenario starts from the same tiny saved deployment: a 6-document
synthetic DBLP collection, built naive, snapshotted to disk.  Mutations
are the chained ``incr_*`` documents of ``tests/conftest.py``, so each
add is cheap and the whole verb history replays in well under a second.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import List

import pytest

from repro.collection.io import load_collection, save_collection
from repro.core.config import FlixConfig
from repro.core.framework import Flix
from repro.datasets.dblp import DblpSpec, generate_dblp
from tests.conftest import added_documents


@pytest.fixture()
def deployment(tmp_path):
    """A fresh saved snapshot + collection directory (per test: the
    durability tests mutate, crash, and recover destructively)."""
    collection = generate_dblp(DblpSpec(documents=6, seed=7))
    flix = Flix.build(collection, FlixConfig.naive())
    collection_dir = tmp_path / "collection"
    index_dir = tmp_path / "index"
    save_collection(collection, collection_dir)
    flix.save(index_dir)
    return SimpleNamespace(
        collection=collection,
        flix=flix,
        collection_dir=collection_dir,
        index_dir=index_dir,
    )


@pytest.fixture()
def mutation_docs() -> List:
    """Six tiny chained documents to grow the deployment with."""
    return added_documents(6)


def run_verbs(flix: Flix, docs) -> None:
    """The canonical mutation history every recovery test replays:
    three single adds, one batch of two, one remove."""
    flix.add_document(docs[0])
    flix.add_document(docs[1])
    flix.add_document(docs[2])
    flix.add_documents(docs[3:5])
    flix.remove_document(docs[1].name)


def checkpoint(deployment, flix: Flix) -> None:
    """A full checkpoint: snapshot the collection *and* the index (the
    manifest fingerprints the collection, so the two must move together;
    ``flix.save`` then truncates the WAL)."""
    save_collection(flix.collection, deployment.collection_dir, prune=True)
    flix.save(deployment.index_dir)


def fresh_reference(deployment, docs) -> Flix:
    """An uncrashed run of the same history on an independent load of
    the snapshot — the fingerprint recovery must reproduce."""
    collection = load_collection(deployment.collection_dir)
    reference = Flix.load(collection, deployment.index_dir)
    run_verbs(reference, docs)
    return reference
