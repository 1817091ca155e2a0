"""Property and unit tests for incremental HOPI maintenance.

Edge insertions must keep every reachability and distance query exact —
the invariant behind the follow-up work the paper's bibliography points to
("Efficient creation and incremental maintenance of the HOPI index").
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.closure import transitive_closure
from repro.indexes.hopi import HopiIndex
from repro.indexes.packed import packed_clone
from tests.conftest import chain_graph, diamond_graph, random_digraph, random_tags


def build(graph, tags=None):
    tags = tags or {n: "t" for n in graph}
    return HopiIndex.build(graph, tags)


class TestInsertEdgeBasics:
    def test_new_reachability_appears(self):
        g = chain_graph(3)  # 0->1->2->3
        index = build(g)
        assert not index.reachable(3, 0)
        g.add_edge(3, 0)
        index.insert_edge(3, 0)
        assert index.reachable(3, 0)
        assert index.distance(3, 0) == 1
        # the cycle makes everything mutually reachable
        for u in range(4):
            for v in range(4):
                assert index.reachable(u, v)

    def test_shortcut_improves_distance(self):
        g = chain_graph(5)
        index = build(g)
        assert index.distance(0, 5) == 5
        index.insert_edge(0, 4)
        assert index.distance(0, 5) == 2
        assert index.distance(0, 4) == 1
        assert index.distance(0, 3) == 3  # unaffected pairs keep distances

    def test_duplicate_edge_noop(self):
        g = diamond_graph()
        index = build(g)
        before = index.label_entry_count
        index.insert_edge(0, 1)  # already present
        assert index.label_entry_count == before

    def test_unknown_endpoint_rejected(self):
        index = build(diamond_graph())
        with pytest.raises(KeyError):
            index.insert_edge(0, 99)

    def test_enumeration_sees_new_descendants(self):
        g = chain_graph(2)
        index = build(g)
        g2 = chain_graph(2)
        index.insert_edge(2, 0)
        descendants = dict(index.find_descendants_by_tag(1, None))
        assert descendants == {0: 2, 1: 0, 2: 1}

    def test_rows_appended_to_tables(self):
        """An insertion's new labels reach the index's packed form."""
        g = chain_graph(3)
        index = HopiIndex.build(g, {n: "t" for n in g})
        before = len(packed_clone(index).blob.column("in_hubs"))
        index.insert_edge(3, 0)
        after = len(packed_clone(index).blob.column("in_hubs"))
        assert after > before


class TestInsertNode:
    def test_isolated_node_self_reachable(self):
        index = build(diamond_graph())
        index.insert_node(99, "new")
        assert index.reachable(99, 99)
        assert index.distance(99, 99) == 0
        assert not index.reachable(0, 99)
        assert index.find_descendants_by_tag(99, None) == [(99, 0)]

    def test_duplicate_node_rejected(self):
        index = build(diamond_graph())
        with pytest.raises(ValueError):
            index.insert_node(0, "t")

    def test_node_then_edges_integrates(self):
        g = chain_graph(2)
        index = build(g)
        index.insert_node(10, "t")
        index.insert_edge(2, 10)
        index.insert_edge(10, 0)  # closes a cycle 0..2 -> 10 -> 0
        for u in (0, 1, 2, 10):
            for v in (0, 1, 2, 10):
                assert index.reachable(u, v)

    def test_tag_recorded(self):
        index = build(chain_graph(1))
        index.insert_node(5, "special")
        index.insert_edge(0, 5)
        assert index.find_descendants_by_tag(0, "special") == [(5, 1)]


class TestInsertEdgeProperties:
    @given(
        st.integers(min_value=0, max_value=5000),
        st.integers(min_value=2, max_value=20),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_exact_after_insertions(self, seed, n, insertions):
        import random

        rng = random.Random(seed)
        graph = random_digraph(seed, n, edge_factor=0.8)
        tags = random_tags(seed, n)
        index = HopiIndex.build(graph, tags)
        for _ in range(insertions):
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v or graph.has_edge(u, v):
                continue
            graph.add_edge(u, v)
            index.insert_edge(u, v)
        oracle = transitive_closure(graph)
        for u in graph:
            assert dict(index.find_descendants_by_tag(u, None)) == (
                oracle.descendants(u)
            )
            ancestors = {
                v: oracle.distance(v, u) for v in graph if oracle.reachable(v, u)
            }
            assert dict(index.find_ancestors_by_tag(u, None)) == ancestors

    @given(
        st.integers(min_value=0, max_value=5000),
        st.integers(min_value=2, max_value=15),
    )
    @settings(max_examples=25, deadline=None)
    def test_incremental_equals_rebuild(self, seed, n):
        """Same queries as an index built from scratch on the final graph."""
        import random

        rng = random.Random(seed)
        graph = random_digraph(seed, n, edge_factor=0.5)
        tags = random_tags(seed, n)
        incremental = HopiIndex.build(graph, tags)
        for _ in range(4):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v and not graph.has_edge(u, v):
                graph.add_edge(u, v)
                incremental.insert_edge(u, v)
        rebuilt = HopiIndex.build(graph, tags)
        for u in graph:
            for v in graph:
                assert incremental.distance(u, v) == rebuilt.distance(u, v)
