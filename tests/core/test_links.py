"""The residual links' stored form: ``links.pack``."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.links import (
    links_pack_bytes,
    pack_links,
    read_links,
    residual_links,
)
from repro.indexes.packed import pack_index
from repro.indexes.registry import build_index
from repro.storage.errors import CorruptionError
from tests.conftest import diamond_graph

links = st.lists(
    st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), max_size=200
).map(sorted)


@given(links)
@settings(max_examples=30, deadline=None)
def test_round_trip_and_size(tmp_path_factory, pairs):
    path = tmp_path_factory.mktemp("links") / "links.pack"
    data = pack_links(pairs)
    assert len(data) == links_pack_bytes(len(pairs))
    path.write_bytes(data)
    assert read_links(path) == pairs


def test_sixteen_bytes_per_link():
    assert links_pack_bytes(1000) - links_pack_bytes(0) == 16_000


def test_an_index_blob_is_not_a_links_blob(tmp_path):
    path = tmp_path / "links.pack"
    graph = diamond_graph()
    path.write_bytes(pack_index(build_index("hopi", graph, {n: "t" for n in graph})))
    with pytest.raises(CorruptionError, match="not residual links"):
        read_links(path)


def test_truncated_file_is_corrupt(tmp_path):
    path = tmp_path / "links.pack"
    path.write_bytes(pack_links([(1, 2), (3, 4)])[:-5])
    with pytest.raises(CorruptionError):
        read_links(path)


def test_residual_links_skip_tombstones_and_sort(figure1_collection):
    from repro import Flix, FlixConfig

    flix = Flix.build(figure1_collection, FlixConfig.hybrid(60))
    pairs = residual_links(list(flix.layout.slots) + [None])
    assert pairs == sorted(pairs)
    assert len(pairs) == flix.report.residual_link_count
