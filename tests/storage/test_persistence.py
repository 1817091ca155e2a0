"""Index persistence: pack to a FLXPACK file, attach it, query.

A production deployment must survive restarts without rebuilding every
index; these tests round-trip strategies through the one stored form, a
blob file, and verify the attached index answers exactly like the
original.
"""

from repro.graph.closure import transitive_closure
from repro.indexes.apex import ApexIndex
from repro.indexes.hopi import HopiIndex
from repro.indexes.packed import attach_packed_file, pack_index
from repro.indexes.ppo import PpoIndex
from repro.indexes.transitive import TransitiveClosureIndex
from tests.conftest import random_digraph, random_tags, random_tree


def round_trip(index, path):
    """Write ``index``'s blob to ``path`` and mmap-attach it again."""
    path.write_bytes(pack_index(index))
    return attach_packed_file(path)


class TestIndexRoundTrips:
    def test_ppo_round_trip(self, tmp_path):
        graph = random_tree(4, 30)
        tags = random_tags(4, 30)
        original = PpoIndex.build(graph, tags)
        loaded = round_trip(original, tmp_path / "ppo.pack")
        for u in graph:
            assert loaded.find_descendants_by_tag(u, None) == (
                original.find_descendants_by_tag(u, None)
            )
            assert loaded.find_ancestors_by_tag(u, "a") == (
                original.find_ancestors_by_tag(u, "a")
            )
            assert loaded.children(u) == original.children(u)
            assert loaded.parent(u) == original.parent(u)

    def test_hopi_round_trip(self, tmp_path):
        graph = random_digraph(9, 25)
        tags = random_tags(9, 25)
        loaded = round_trip(HopiIndex.build(graph, tags), tmp_path / "hopi.pack")
        oracle = transitive_closure(graph)
        for u in graph:
            assert dict(loaded.find_descendants_by_tag(u, None)) == (
                oracle.descendants(u)
            )

    def test_hopi_round_trip_after_incremental_growth(self, tmp_path):
        graph = random_digraph(2, 15, edge_factor=0.6)
        tags = random_tags(2, 15)
        index = HopiIndex.build(graph, tags)
        new_edges = [(0, 7), (7, 3), (3, 12)]
        for u, v in new_edges:
            if not graph.has_edge(u, v):
                graph.add_edge(u, v)
                index.insert_edge(u, v)
        loaded = round_trip(index, tmp_path / "hopi.pack")
        oracle = transitive_closure(graph)
        for u in graph:
            for v in graph:
                assert loaded.distance(u, v) == oracle.distance(u, v)

    def test_transitive_closure_round_trip(self, tmp_path):
        graph = random_digraph(6, 20)
        tags = random_tags(6, 20)
        loaded = round_trip(
            TransitiveClosureIndex.build(graph, tags), tmp_path / "tc.pack"
        )
        oracle = transitive_closure(graph)
        for u in graph:
            assert dict(loaded.find_descendants_by_tag(u, None)) == (
                oracle.descendants(u)
            )
            assert dict(loaded.find_ancestors_by_tag(u, None)) == {
                v: oracle.distance(v, u) for v in graph if oracle.reachable(v, u)
            }

    def test_apex_round_trip(self, tmp_path):
        graph = random_digraph(8, 22)
        tags = random_tags(8, 22)
        original = ApexIndex.build(graph, tags)
        loaded = round_trip(original, tmp_path / "apex.pack")
        assert loaded.class_count == original.class_count
        oracle = transitive_closure(graph)
        for u in graph:
            assert dict(loaded.find_descendants_by_tag(u, None)) == (
                oracle.descendants(u)
            )
            assert loaded.class_of(u) == original.class_of(u)
