"""Index persistence: pack to a FLXPACK file, attach it, query.

A production deployment must survive restarts without rebuilding every
index; these tests round-trip strategies through the one stored form, a
blob file, and verify the attached index answers exactly like the
freshly built one and the BFS oracle.
"""

from repro.graph.closure import transitive_closure
from repro.indexes.packed import attach_packed_file, pack_index
from repro.indexes.registry import build_index
from tests.conftest import random_digraph, random_tags, random_tree


def round_trip(index, path):
    """Write ``index``'s blob to ``path`` and mmap-attach it again."""
    path.write_bytes(pack_index(index))
    return attach_packed_file(path)


class TestIndexRoundTrips:
    def test_ppo_round_trip(self, tmp_path):
        graph = random_tree(4, 30)
        tags = random_tags(4, 30)
        original = build_index("ppo", graph, tags)
        loaded = round_trip(original, tmp_path / "ppo.pack")
        # the numbering itself, column by column (promoted on first probe)
        assert loaded._pre_lookup() == original._pre_lookup()
        for column in ("_node_col", "_size_col", "_depth_col", "_parent_col"):
            assert list(getattr(loaded, column)) == list(
                getattr(original, column)
            ), column
        for u in graph:
            assert loaded.find_descendants_by_tag(u, None) == (
                original.find_descendants_by_tag(u, None)
            )
            assert loaded.find_ancestors_by_tag(u, "a") == (
                original.find_ancestors_by_tag(u, "a")
            )

    def test_hopi_round_trip(self, tmp_path):
        graph = random_digraph(9, 25)
        tags = random_tags(9, 25)
        loaded = round_trip(
            build_index("hopi", graph, tags), tmp_path / "hopi.pack"
        )
        oracle = transitive_closure(graph)
        for u in graph:
            assert dict(loaded.find_descendants_by_tag(u, None)) == (
                oracle.descendants(u)
            )

    def test_transitive_closure_round_trip(self, tmp_path):
        graph = random_digraph(6, 20)
        tags = random_tags(6, 20)
        loaded = round_trip(
            build_index("transitive_closure", graph, tags), tmp_path / "tc.pack"
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
        original = build_index("apex", graph, tags)
        loaded = round_trip(original, tmp_path / "apex.pack")
        assert loaded.class_count == original.class_count
        oracle = transitive_closure(graph)
        for u in graph:
            assert dict(loaded.find_descendants_by_tag(u, None)) == (
                oracle.descendants(u)
            )
            assert loaded.class_of(u) == original.class_of(u)
