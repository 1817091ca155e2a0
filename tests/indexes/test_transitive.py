"""Unit tests for the materialized transitive-closure index."""

from repro.graph.closure import transitive_closure
from repro.indexes.transitive import TransitiveClosureIndex
from repro.indexes.packed import packed_clone
from tests.conftest import diamond_graph, random_digraph, random_tags


def build(graph, tags=None):
    tags = tags or {n: "t" for n in graph}
    return TransitiveClosureIndex.build(graph, tags)


class TestClosureIndex:
    def test_diamond(self):
        index = build(diamond_graph())
        assert index.distance(0, 3) == 2
        assert index.reachable(0, 0)
        assert not index.reachable(1, 2)

    def test_pair_count(self):
        index = build(diamond_graph())
        # rows: 0:{0,1,2,3} 1:{1,3} 2:{2,3} 3:{3} -> 9 pairs
        assert index.pair_count == 9

    def test_matches_oracle(self):
        g = random_digraph(4, 25)
        tags = random_tags(4, 25)
        index = TransitiveClosureIndex.build(g, tags)
        closure = transitive_closure(g)
        for u in g:
            assert dict(index.find_descendants_by_tag(u, None)) == closure.descendants(u)
            ancestors = {
                v: closure.distance(v, u) for v in g if closure.reachable(v, u)
            }
            assert dict(index.find_ancestors_by_tag(u, None)) == ancestors

    def test_tag_filter(self):
        g = diamond_graph()
        tags = {0: "a", 1: "b", 2: "b", 3: "c"}
        index = TransitiveClosureIndex.build(g, tags)
        assert index.find_descendants_by_tag(0, "b") == [(1, 1), (2, 1)]
        assert index.find_ancestors_by_tag(3, "b") == [(1, 1), (2, 1)]

    def test_persisted_rows_equal_pairs(self):
        g = diamond_graph()
        index = TransitiveClosureIndex.build(g, {n: "t" for n in g})
        blob = packed_clone(index).blob
        assert len(blob.column("dst")) == index.pair_count
        assert len(blob.column("dist")) == index.pair_count

    def test_is_largest_index(self):
        """Table 1's headline: the closure dwarfs HOPI on linked data."""
        from repro.indexes.hopi import HopiIndex

        g = random_digraph(8, 60, edge_factor=2.0)
        tags = {n: "t" for n in g}
        closure_size = packed_clone(
            TransitiveClosureIndex.build(g, tags)
        ).size_bytes()
        hopi_size = packed_clone(HopiIndex.build(g, tags)).size_bytes()
        assert closure_size > hopi_size
