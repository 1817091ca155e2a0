"""Fixtures for the query-API, result-cache and thread-safety suites.

``cached_flix`` builds a small two-document collection with the shared
sharded cache configured through ``FlixConfig.cache``, so every test
exercises the production path.
"""

from __future__ import annotations

import pytest

from repro.collection.builder import build_collection
from repro.collection.document import XmlDocument
from repro.core.config import CacheConfig, FlixConfig
from repro.core.framework import Flix


@pytest.fixture()
def linked_collection():
    return build_collection(
        [
            XmlDocument.from_text(
                "a.xml",
                '<doc><l xlink:href="b.xml"/><p>alpha</p><q>one</q></doc>',
            ),
            XmlDocument.from_text("b.xml", "<doc><p>beta</p><q>two</q></doc>"),
        ]
    )


@pytest.fixture()
def cached_flix(linked_collection):
    config = FlixConfig.naive().with_cache(CacheConfig(maxsize=64, shards=4))
    return Flix.build(linked_collection, config)


@pytest.fixture()
def figure1_flix(figure1_collection):
    config = FlixConfig.hybrid(60).with_cache(
        CacheConfig(maxsize=256, shards=4)
    )
    return Flix.build(figure1_collection, config)
